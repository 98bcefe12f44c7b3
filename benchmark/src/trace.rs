//! The traced run: an in-process, single-threaded replay of a workload's
//! script with a span around every call into a layer.
//!
//! Nothing inside the measured crates is instrumented. The replay drives the
//! real request path — `parse_request` → `ServiceCore::handle` →
//! `Value::encode` — and records those as *parent* spans. The core is the
//! one the workload serves with: on a durable workload it is recovered over
//! a counting `Storage` (`ServiceCore::recover_with`), so it appends,
//! syncs and checkpoints by its own policy and the I/O counts are its own.
//! The layers below `handle` are timed on **shadow instances** fed the same
//! events right after: a bare `MarketEngine`, a bare `Wal` where the core
//! has a log, a shadow standby core behind the replication frame codec
//! where the workload replicates, per-agent estimators, and after each tick
//! the `core`/`ledger`/`sched` calls on that tick's utilities and
//! allocation. The shadow engine's span names the `handle` span as its
//! parent, as does the time the real core's log spent in its storage
//! (`serve.wal.io`), so `handle`'s self time is its span minus its children
//! even though the engine's ran afterwards.
//!
//! The replay is deterministic: two connections' ops are interleaved in a
//! fixed order, so every count (`*_bytes`, `*_per_append`, `pair_evals`, ...)
//! repeats exactly for a seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ref_core::mechanism::{
    CreditMechanism, EqualSlowdown, GpWarmStart, MaxWelfare, Mechanism, ProportionalElasticity,
};
use ref_core::online::OnlineEstimator;
use ref_core::properties::FairnessReport;
use ref_core::resource::{Allocation, Capacity};
use ref_core::utility::{CobbDouglas, Utility};
use ref_market::{
    CreditLedger, MarketConfig, MarketEngine, MarketEvent, MarketSnapshot, MechanismKind,
    ObservationSource, WarmStartCache,
};
use ref_sched::stride::StrideScheduler;
use ref_serve::protocol::value_to_event;
use ref_serve::repl::{message, parse_message};
use ref_serve::storage::{FsStorage, Storage, StorageFile};
use ref_serve::{
    decode_frame, parse_request, shard_market_config, Coordinator, FaultPlan, FrameDecode,
    HashRing, JournalLimit, Request, ServeMetrics, ServiceCore, Value, Wal, WalConfig,
};
use ref_solver::update::UpdatableLstsq;

use crate::rng::Rng;
use crate::script::{Durability, OpKind, Script, Shape};
use crate::stats::{median, segment_of, SEGMENTS};

/// Paced ops of connection 1 replayed after each closed round of an
/// `epoch_*` script: 50 to 100 ops/s over a round of 36 to 130 ms is 2 to
/// 13.
const EPOCH_PACED_PER_ROUND: usize = 6;
/// The ring the lookup is timed on when the workload itself has one shard.
const RING_SHARDS: usize = 4;
const RING_SEED: u64 = 0x5EED;
/// Replays of the real path with spans off, and as many with spans on, that
/// `trace.overhead_share` is taken from.
const OVERHEAD_PASSES: usize = 3;
/// Smallest stride weight, as the engine clamps it (see [`enforce`]).
const MIN_STRIDE_WEIGHT: f64 = 1e-9;

/// Where a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Layer {
    Op,
    Parse,
    RingLookup,
    HandleMutate,
    HandleQuery,
    HandleTick,
    Encode,
    Decode,
    CoordinatorStep,
    EngineObserve,
    EngineJoin,
    EngineLeave,
    EngineDemand,
    EngineTick,
    WalIo,
    WalAppend,
    WalCheckpoint,
    FrameEncode,
    FrameDecode,
    ReplApply,
    ReplApplyTick,
    OnlineObserve,
    LstsqAppend,
    Audit,
    AllocateCold,
    AllocateWarm,
    LedgerAccrue,
    WarmHint,
    StrideEnforce,
    SnapshotEncode,
    SnapshotFingerprint,
}

impl Layer {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Parse => "serve.protocol.parse",
            Layer::RingLookup => "serve.shard.ring_lookup",
            Layer::HandleMutate => "serve.core.handle_mutation",
            Layer::HandleQuery => "serve.core.handle_query",
            Layer::HandleTick => "serve.core.handle_tick",
            Layer::Encode => "serve.json.encode",
            Layer::Decode => "serve.json.decode",
            Layer::CoordinatorStep => "serve.shard.coordinator_step",
            Layer::EngineObserve => "market.engine.observe",
            Layer::EngineJoin => "market.engine.join",
            Layer::EngineLeave => "market.engine.leave",
            Layer::EngineDemand => "market.engine.demand",
            Layer::EngineTick => "market.engine.tick",
            Layer::WalIo => "serve.wal.io",
            Layer::WalAppend => "serve.wal.append",
            Layer::WalCheckpoint => "serve.wal.checkpoint",
            Layer::FrameEncode => "serve.repl.frame_encode",
            Layer::FrameDecode => "serve.repl.frame_decode",
            Layer::ReplApply => "serve.repl.apply",
            Layer::ReplApplyTick => "serve.repl.apply_tick",
            Layer::OnlineObserve => "core.online.observe",
            Layer::LstsqAppend => "solver.update.append",
            Layer::Audit => "core.properties.audit",
            Layer::AllocateCold => "core.mechanism.allocate_cold",
            Layer::AllocateWarm => "core.mechanism.allocate_warm",
            Layer::LedgerAccrue => "market.ledger.accrue",
            Layer::WarmHint => "market.warm.hint",
            Layer::StrideEnforce => "sched.stride.enforce",
            Layer::SnapshotEncode => "market.snapshot.encode",
            Layer::SnapshotFingerprint => "market.snapshot.fingerprint",
        }
    }
}

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// The op the span belongs to: spans of one request share it.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans in memory; written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (or [`ROOT`] when disabled).
    pub fn begin(&mut self, layer: Layer, parent: u32, op: u32) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, span: u32) {
        if self.enabled {
            self.spans[span as usize].end_ns = self.now_ns();
        }
    }

    /// Records a span of `ns` nanoseconds that ran somewhere inside span
    /// `parent`, measured by other means than this tracer's clock.
    pub fn record_within(&mut self, layer: Layer, parent: u32, op: u32, ns: u64) {
        if self.enabled && parent != ROOT {
            let start_ns = self.spans[parent as usize].start_ns;
            self.spans.push(Span {
                layer,
                parent,
                op,
                start_ns,
                end_ns: start_ns + ns,
            });
        }
    }

    /// Times `f` as one span.
    pub fn timed<T>(&mut self, layer: Layer, parent: u32, op: u32, f: impl FnOnce() -> T) -> T {
        let span = self.begin(layer, parent, op);
        let out = f();
        self.end(span);
        out
    }
}

/// A layer's spans, summarised.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: usize,
    /// Mean span duration per segment (by op index), median of segments.
    pub mean_ns: f64,
    /// The same for self time: duration minus direct children.
    pub self_mean_ns: f64,
}

/// Summarises `spans` per layer. `ops` is the number of ops traced.
pub fn summarize(spans: &[Span], ops: usize) -> BTreeMap<Layer, LayerTime> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT {
            children_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
    }
    // Per layer and segment: (count, total ns, self ns).
    let mut sums: BTreeMap<Layer, [(usize, u64, u64); SEGMENTS]> = BTreeMap::new();
    for (span, child_ns) in spans.iter().zip(&children_ns) {
        let total = span.end_ns - span.start_ns;
        let slot = &mut sums.entry(span.layer).or_default()
            [segment_of(span.op as usize, ops.max(1), SEGMENTS)];
        slot.0 += 1;
        slot.1 += total;
        slot.2 += total.saturating_sub(*child_ns);
    }
    sums.into_iter()
        .map(|(layer, segments)| {
            let mean = |pick: fn(&(usize, u64, u64)) -> u64| {
                let means: Vec<f64> = segments
                    .iter()
                    .filter(|s| s.0 > 0)
                    .map(|s| pick(s) as f64 / s.0 as f64)
                    .collect();
                median(&means).unwrap_or(0.0)
            };
            let time = LayerTime {
                count: segments.iter().map(|s| s.0).sum(),
                mean_ns: mean(|s| s.1),
                self_mean_ns: mean(|s| s.2),
            };
            (layer, time)
        })
        .collect()
}

// ---------------------------------------------------------------------
// The counting storage: the WAL's file system, with counters.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct IoCounts {
    appends: AtomicU64,
    append_bytes: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    file_write_bytes: AtomicU64,
    /// Time inside the storage's writes and syncs.
    io_ns: AtomicU64,
}

impl IoCounts {
    /// Adds the time since `started` to each of `counters`.
    fn took(&self, started: Instant, counters: &[&AtomicU64]) {
        let ns = started.elapsed().as_nanos() as u64;
        for counter in counters {
            counter.fetch_add(ns, Ordering::Relaxed);
        }
    }

    fn reset(&self) {
        for counter in [
            &self.appends,
            &self.append_bytes,
            &self.syncs,
            &self.sync_ns,
            &self.file_write_bytes,
            &self.io_ns,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

#[derive(Debug)]
struct CountingStorage {
    counts: Arc<IoCounts>,
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn StorageFile>,
    counts: Arc<IoCounts>,
}

impl StorageFile for CountingFile {
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.counts.appends.fetch_add(1, Ordering::Relaxed);
        self.counts
            .append_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let started = Instant::now();
        let out = self.inner.write_all(bytes);
        self.counts.took(started, &[&self.counts.io_ns]);
        out
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        let started = Instant::now();
        let out = self.inner.sync_data();
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.counts
            .took(started, &[&self.counts.sync_ns, &self.counts.io_ns]);
        out
    }

    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
}

impl Storage for CountingStorage {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        FsStorage.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        FsStorage.list_dir(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        FsStorage.exists(path)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        FsStorage.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.counts
            .file_write_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let started = Instant::now();
        let out = FsStorage.write(path, bytes);
        self.counts.took(started, &[&self.counts.io_ns]);
        out
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        FsStorage.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        FsStorage.remove_file(path)
    }
    fn len(&self, path: &Path) -> std::io::Result<u64> {
        FsStorage.len(path)
    }
    fn open_append(&self, path: &Path, create: bool) -> std::io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(CountingFile {
            inner: FsStorage.open_append(path, create)?,
            counts: Arc::clone(&self.counts),
        }))
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        FsStorage.truncate(path, len)
    }
}

// ---------------------------------------------------------------------
// The replay.
// ---------------------------------------------------------------------

/// The shadow instances of one shard.
struct Shadow {
    engine: MarketEngine,
    /// A bare log, where the workload's core has one.
    wal: Option<Wal>,
    /// A standby core with a log of its own, where the workload replicates.
    standby: Option<ServiceCore>,
    standby_metrics: ServeMetrics,
    ledger: CreditLedger,
    warm: WarmStartCache,
    /// Events fed so far: the replication sequence number.
    seq: u64,
}

/// One shard: the real core and, in the main pass, its shadows.
struct Lane {
    core: ServiceCore,
    metrics: ServeMetrics,
    /// What the core's own log wrote (all zero where it has none).
    io: Arc<IoCounts>,
    shadow: Option<Shadow>,
}

/// Where the spans of an op's shadows attach.
#[derive(Debug, Clone, Copy)]
struct Under {
    /// The real core's `handle` span.
    handle: u32,
    /// The op's root span.
    root: u32,
    op: u32,
    /// The real core took a checkpoint inside `handle`.
    checkpointed: bool,
}

/// What the engine's epoch is about to allocate over.
struct TickInputs {
    ids: Vec<u64>,
    reported: Vec<CobbDouglas>,
    weights: Vec<f64>,
    capacity: Capacity,
}

/// Exact counts and one-off timings of a replay.
#[derive(Debug, Default, Clone)]
struct Counts {
    ops: u64,
    failed: u64,
    request_bytes: u64,
    mutation_request_bytes: u64,
    reply_bytes: u64,
    replies: u64,
    tick_reply_bytes: u64,
    ticks: u64,
    pair_evals: u64,
    refits: u64,
    snapshot_bytes: u64,
}

struct Replay<'a> {
    script: &'a Script,
    tracer: Tracer,
    ring: HashRing,
    lanes: Vec<Lane>,
    coordinator: Option<Coordinator>,
    estimators: BTreeMap<u64, (OnlineEstimator, UpdatableLstsq)>,
    counts: Counts,
}

/// The mechanism the engine builds for `kind` (its own constructor is
/// private to `ref-market`): what is timed is `ref-core`'s solve.
fn mechanism(kind: MechanismKind, weights: &[f64]) -> Box<dyn Mechanism> {
    match kind {
        MechanismKind::ProportionalElasticity => Box::new(ProportionalElasticity),
        MechanismKind::MaxWelfare { fairness: true } => Box::new(MaxWelfare::with_fairness()),
        MechanismKind::MaxWelfare { fairness: false } => Box::new(MaxWelfare::without_fairness()),
        MechanismKind::EqualSlowdown { fairness: true } => Box::new(EqualSlowdown::with_fairness()),
        MechanismKind::EqualSlowdown { fairness: false } => Box::new(EqualSlowdown::new()),
        MechanismKind::Credit { inner } => Box::new(
            CreditMechanism::new(inner, weights.to_vec()).expect("ledger weights are positive"),
        ),
    }
}

fn agent_of(request: &Request) -> Option<u64> {
    match request {
        Request::Join { agent, .. }
        | Request::Leave { agent }
        | Request::Demand { agent, .. }
        | Request::Observe { agent, .. } => Some(*agent),
        Request::Query { agent } => *agent,
        _ => None,
    }
}

/// The configuration of a workload's log under `dir`, `None` where the
/// server keeps none: as `child::serve` configures the served one.
fn wal_config(durability: Durability, dir: &Path) -> Option<WalConfig> {
    match durability {
        Durability::None => None,
        Durability::WalFsync => Some(WalConfig::new(dir).with_fsync(true)),
        Durability::ReplSync => Some(WalConfig::new(dir)),
    }
}

impl Shadow {
    fn new(market: &MarketConfig, dir: &Path, durability: Durability) -> std::io::Result<Shadow> {
        let wal = match wal_config(durability, &dir.join("shadow-wal")) {
            Some(config) => Some(Wal::open(config, FaultPlan::none())?.wal),
            None => None,
        };
        let standby = match durability {
            Durability::ReplSync => Some(ServiceCore::recover(
                market.clone(),
                JournalLimit::default(),
                WalConfig::new(dir.join("standby")),
                FaultPlan::none(),
            )?),
            _ => None,
        };
        Ok(Shadow {
            engine: MarketEngine::new(market.clone()).map_err(std::io::Error::other)?,
            wal,
            standby,
            standby_metrics: ServeMetrics::new(),
            ledger: CreditLedger::new(),
            warm: WarmStartCache::new(),
            seq: 0,
        })
    }
}

impl Lane {
    /// The core the workload serves with: over its own log, through the
    /// counting storage, on a durable workload; bare otherwise.
    fn new(
        market: &MarketConfig,
        dir: &Path,
        durability: Durability,
        shadows: bool,
    ) -> std::io::Result<Lane> {
        let io = Arc::new(IoCounts::default());
        let core = match wal_config(durability, &dir.join("wal")) {
            Some(config) => ServiceCore::recover_with(
                Arc::new(CountingStorage {
                    counts: Arc::clone(&io),
                }),
                market.clone(),
                JournalLimit::default(),
                config,
                FaultPlan::none(),
            )?,
            None => ServiceCore::new(market.clone(), JournalLimit::default())
                .map_err(std::io::Error::other)?,
        };
        Ok(Lane {
            core,
            metrics: ServeMetrics::new(),
            io,
            shadow: match shadows {
                true => Some(Shadow::new(market, dir, durability)?),
                false => None,
            },
        })
    }
}

impl<'a> Replay<'a> {
    /// A replay over fresh logs under `dir` (whatever is there is removed).
    fn new(script: &'a Script, dir: &Path, spans: bool, shadows: bool) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(dir);
        let shards = script.workload.shards;
        let market = shard_market_config(&script.workload.market(), shards);
        let durability = script.workload.durability;
        let mut lanes = Vec::new();
        for shard in 0..shards {
            let dir = dir.join(format!("shard-{shard}"));
            lanes.push(Lane::new(&market, &dir, durability, shadows)?);
        }
        let base = ref_serve::ServeConfig::new(script.workload.market());
        Ok(Replay {
            script,
            tracer: Tracer::new(spans),
            ring: HashRing::new(if shards > 1 { shards } else { RING_SHARDS }, RING_SEED),
            lanes,
            coordinator: (shards > 1).then(|| {
                Coordinator::new(script.workload.capacity.to_vec(), shards, base.drift_bound)
            }),
            estimators: BTreeMap::new(),
            counts: Counts::default(),
        })
    }

    /// Feeds one event to a lane's shadows. The engine's span is a child of
    /// `handle`: the real core's engine did that work inside `handle`.
    fn shadow_event(&mut self, lane: usize, event: &MarketEvent, under: Under) {
        let Some(shadow) = self.lanes[lane].shadow.as_mut() else {
            return;
        };
        let tracer = &mut self.tracer;
        let Under { handle, op, .. } = under;
        let layer = match event {
            MarketEvent::ObservationReported { .. } => Layer::EngineObserve,
            MarketEvent::AgentJoined { .. } => Layer::EngineJoin,
            MarketEvent::AgentLeft { .. } => Layer::EngineLeave,
            MarketEvent::DemandChanged { .. } => Layer::EngineDemand,
            // Reallotments are the coordinator's and have no span; ticks go
            // through `shadow_tick`.
            _ => Layer::Op,
        };
        let engine_span = match layer {
            Layer::Op => ROOT,
            _ => tracer.begin(layer, handle, op),
        };
        let _ = shadow.engine.apply_now(event.clone());
        if engine_span != ROOT {
            tracer.end(engine_span);
        }
        Replay::shadow_durability(shadow, tracer, event, under);

        if let MarketEvent::ObservationReported {
            id,
            allocation,
            performance,
        } = event
        {
            let (estimator, lstsq) = self.estimators.entry(*id).or_insert_with(|| {
                (
                    OnlineEstimator::new(allocation.len()).expect("two resources"),
                    UpdatableLstsq::new(allocation.len() + 1),
                )
            });
            // What the engine did inside its span: feed the agent's
            // estimator, whose inner step rotates the log-row into the
            // triangle and re-solves.
            let observe_span = tracer.begin(Layer::OnlineObserve, engine_span, op);
            let _ = estimator.observe(allocation.clone(), *performance);
            tracer.end(observe_span);
            let mut row = vec![1.0];
            row.extend(allocation.iter().map(|x| x.ln()));
            let _ = tracer.timed(Layer::LstsqAppend, observe_span, op, || {
                lstsq
                    .append(&row, performance.ln())
                    .and_then(|()| lstsq.solve())
            });
        }
    }

    /// The log and replication path of one event, after the shadow engine
    /// applied it. The bare log appends, and checkpoints when the real core
    /// just did, so the cadence is the core's own policy. These spans, and
    /// the standby's frame, unframe and apply, hang off the op's root span:
    /// what the real core spent on its log inside `handle` is already there
    /// as its `serve.wal.io` child, and the standby works on another node.
    /// Only the snapshot a checkpoint encodes is `handle`'s child.
    fn shadow_durability(
        shadow: &mut Shadow,
        tracer: &mut Tracer,
        event: &MarketEvent,
        under: Under,
    ) {
        let Under {
            handle,
            root,
            op,
            checkpointed,
        } = under;
        if let Some(wal) = shadow.wal.as_mut() {
            let _ = tracer.timed(Layer::WalAppend, root, op, || wal.append(event));
            if checkpointed {
                let engine = &shadow.engine;
                let text = tracer.timed(Layer::SnapshotEncode, handle, op, || {
                    engine.snapshot().encode()
                });
                let _ = tracer.timed(Layer::WalCheckpoint, root, op, || wal.checkpoint(&text));
            }
        }
        let Some(standby) = shadow.standby.as_mut() else {
            return;
        };
        let seq = shadow.seq;
        shadow.seq += 1;
        let frame = tracer.timed(Layer::FrameEncode, root, op, || {
            message(
                "rec",
                vec![
                    ("seq", Value::from_u64(seq)),
                    ("event", ref_serve::protocol::event_to_value(event)),
                ],
            )
        });
        let decoded = tracer.timed(Layer::FrameDecode, root, op, || {
            let FrameDecode::Complete { payload, .. } = decode_frame(&frame) else {
                return None;
            };
            let msg = parse_message(&payload)?;
            value_to_event(msg.get("event")?).ok()
        });
        if let Some(decoded) = decoded {
            let layer = match event {
                MarketEvent::EpochTick => Layer::ReplApplyTick,
                _ => Layer::ReplApply,
            };
            let metrics = &shadow.standby_metrics;
            let _ = tracer.timed(layer, root, op, || {
                standby.apply_repl(seq, decoded, metrics)
            });
        }
    }

    /// One epoch on a lane's shadows: the engine tick, then the calls the
    /// engine makes inside it, each on this tick's inputs.
    fn shadow_tick(&mut self, lane: usize, under: Under) {
        let Some(shadow) = self.lanes[lane].shadow.as_mut() else {
            return;
        };
        let tracer = &mut self.tracer;
        let Under { handle, op, .. } = under;
        let engine = &shadow.engine;
        let ids = engine.live_agents();
        let kind = engine.config().mechanism;
        let inputs = TickInputs {
            reported: ids
                .iter()
                .map(|id| engine.agent(*id).expect("live agent").reported_utility())
                .collect(),
            weights: match kind.credit_weighted() {
                true => engine.ledger().weights(&ids),
                false => Vec::new(),
            },
            capacity: engine.config().capacity.clone(),
            ids,
        };
        let (audit_tolerance, quanta, window, slack) = (
            engine.config().audit_tolerance,
            engine.config().enforcement_quanta,
            engine.config().temporal_window as usize,
            engine.config().temporal_slack,
        );

        let tick = tracer.begin(Layer::EngineTick, handle, op);
        let report = shadow.engine.apply_now(MarketEvent::EpochTick);
        tracer.end(tick);
        Replay::shadow_durability(shadow, tracer, &MarketEvent::EpochTick, under);
        let Ok(Some(report)) = report else {
            return;
        };
        self.counts.refits += report.refits as u64;
        let Some(allocation) = report.allocation.as_ref() else {
            return;
        };
        let TickInputs {
            ids,
            reported,
            weights,
            capacity,
        } = &inputs;
        let n = ids.len() as u64;

        // The mechanism, cold and (when the previous tick left a usable
        // optimum) warm. The engine runs one of the two per reallocation:
        // that one is the tick's child.
        let solver = mechanism(kind, weights);
        let hint: Option<GpWarmStart> = shadow.warm.hint(ids, capacity.num_resources());
        let cold_parent = if hint.is_some() { ROOT } else { tick };
        let cold = tracer.timed(Layer::AllocateCold, cold_parent, op, || {
            solver.allocate_warm(reported, capacity, None)
        });
        let mut next_hint = cold.ok().and_then(|(_, hint)| hint);
        if let Some(hint) = &hint {
            let warm = tracer.timed(Layer::AllocateWarm, tick, op, || {
                solver.allocate_warm(reported, capacity, Some(hint))
            });
            next_hint = warm.ok().and_then(|(_, hint)| hint);
        }
        tracer.timed(Layer::WarmHint, tick, op, || {
            match &next_hint {
                Some(next) => shadow.warm.store(ids, capacity.num_resources(), next),
                None => shadow.warm.clear(),
            }
            shadow.warm.hint(ids, capacity.num_resources())
        });

        tracer.timed(Layer::Audit, tick, op, || {
            FairnessReport::check_with_tolerance(reported, allocation, capacity, audit_tolerance)
        });
        // Derived, not counted (the audit exposes no counter): EF compares
        // each agent with every other. It sizes the audit's input.
        self.counts.pair_evals += n * (n - 1);

        let equal_share: Vec<f64> = capacity.as_slice().iter().map(|c| c / n as f64).collect();
        let measured: Vec<(u64, f64, f64)> = ids
            .iter()
            .zip(reported)
            .enumerate()
            .map(|(i, (id, u))| {
                (
                    *id,
                    u.value(allocation.bundle(i)),
                    u.value_slice(&equal_share),
                )
            })
            .collect();
        tracer.timed(Layer::LedgerAccrue, tick, op, || {
            shadow.ledger.accrue(&measured, window);
            shadow.ledger.temporal_check(window, slack)
        });

        tracer.timed(Layer::StrideEnforce, tick, op, || {
            enforce(allocation, capacity, quanta)
        });
    }

    /// Runs one request line through the real path and then the shadows.
    fn run_op(&mut self, line: &str, kind: OpKind) {
        let op = self.counts.ops as u32;
        self.counts.ops += 1;
        self.counts.request_bytes += line.len() as u64;
        let root = self.tracer.begin(Layer::Op, ROOT, op);
        let parsed = self
            .tracer
            .timed(Layer::Parse, root, op, || parse_request(line));
        let Ok(envelope) = parsed else {
            self.counts.failed += 1;
            self.tracer.end(root);
            return;
        };
        let request = envelope.request;
        let event = request.to_event();
        if kind == OpKind::Mutate {
            self.counts.mutation_request_bytes += line.len() as u64;
        }

        // Agent ops go to the owning shard; a tick goes to every shard.
        let shards = self.lanes.len();
        let targets: Vec<usize> = match agent_of(&request) {
            Some(agent) => {
                let ring = &self.ring;
                let shard = self
                    .tracer
                    .timed(Layer::RingLookup, root, op, || ring.shard_of(agent));
                vec![if shards > 1 { shard } else { 0 }]
            }
            None => (0..shards).collect(),
        };
        let handle_layer = match kind {
            OpKind::Mutate => Layer::HandleMutate,
            OpKind::Query => Layer::HandleQuery,
            OpKind::Tick => Layer::HandleTick,
        };
        let mut handles = Vec::with_capacity(targets.len());
        let mut good = true;
        for &lane in &targets {
            let Lane {
                core, metrics, io, ..
            } = &mut self.lanes[lane];
            let checkpoints = metrics.checkpoints.load(Ordering::Relaxed);
            let io_ns = io.io_ns.load(Ordering::Relaxed);
            let handle = self.tracer.begin(handle_layer, root, op);
            let reply = core.handle(&request, metrics);
            self.tracer.end(handle);
            // The core's own log I/O, timed inside its storage: a child of
            // `handle` like the shadow engine's span.
            let io_ns = io.io_ns.load(Ordering::Relaxed) - io_ns;
            if io_ns > 0 {
                self.tracer.record_within(Layer::WalIo, handle, op, io_ns);
            }
            handles.push(Under {
                handle,
                root,
                op,
                checkpointed: metrics.checkpoints.load(Ordering::Relaxed) > checkpoints,
            });
            let text = self
                .tracer
                .timed(Layer::Encode, root, op, || reply.encode());
            let decoded = self
                .tracer
                .timed(Layer::Decode, root, op, || Value::parse(&text));
            good &= decoded.is_ok_and(|v| v.get("ok") == Some(&Value::Bool(true)));
            if kind == OpKind::Tick {
                self.counts.tick_reply_bytes += text.len() as u64;
            } else {
                self.counts.reply_bytes += text.len() as u64;
                self.counts.replies += 1;
            }
        }
        let mut reallotments = Vec::new();
        if kind == OpKind::Tick {
            self.counts.ticks += 1;
            reallotments = self.coordinate(root, op);
        }
        self.tracer.end(root);
        self.counts.failed += u64::from(!good);

        if let Some(event) = event {
            for (&lane, &under) in targets.iter().zip(&handles) {
                if kind == OpKind::Tick {
                    self.shadow_tick(lane, under);
                } else {
                    self.shadow_event(lane, &event, under);
                }
            }
            if kind == OpKind::Tick {
                self.shadow_snapshot(op);
            }
        }
        // The shadows see the reallotments where the cores saw them: after
        // the tick.
        let loose = Under {
            handle: ROOT,
            root: ROOT,
            op,
            checkpointed: false,
        };
        for (lane, event) in reallotments {
            self.shadow_event(lane, &event, loose);
        }
    }

    /// After a fleet tick: the cross-shard coordinator moves capacity
    /// between shards, delivered as journaled `reallot` events. Returns the
    /// events, for the shadows.
    fn coordinate(&mut self, root: u32, op: u32) -> Vec<(usize, MarketEvent)> {
        let Some(coordinator) = self.coordinator.as_mut() else {
            return Vec::new();
        };
        let demands: Vec<Vec<f64>> = self
            .lanes
            .iter()
            .map(|lane| lane.core.engine().aggregate_demand())
            .collect();
        let updates = self.tracer.timed(Layer::CoordinatorStep, root, op, || {
            coordinator.step(&demands)
        });
        let mut delivered = Vec::new();
        for (lane, capacity) in updates.into_iter().enumerate() {
            let Some(capacity) = capacity else {
                continue;
            };
            let event = MarketEvent::CapacityRealloted {
                capacity: capacity.clone(),
            };
            let Lane { core, metrics, .. } = &mut self.lanes[lane];
            let _ = core.handle(&Request::Reallot { capacity }, metrics);
            delivered.push((lane, event));
        }
        delivered
    }

    /// What a checkpoint or a replication fingerprint costs at this point:
    /// encode and fingerprint shard 0's state.
    fn shadow_snapshot(&mut self, op: u32) {
        let Some(shadow) = self.lanes[0].shadow.as_ref() else {
            return;
        };
        let text = self.tracer.timed(Layer::SnapshotEncode, ROOT, op, || {
            shadow.engine.snapshot().encode()
        });
        self.counts.snapshot_bytes = text.len() as u64;
        self.tracer.timed(Layer::SnapshotFingerprint, ROOT, op, || {
            shadow.engine.state_fingerprint()
        });
    }

    /// Builds the population (untraced) and replays the traced stretch of
    /// the script. Returns the seconds the traced stretch took.
    fn run(&mut self) -> f64 {
        let spans = std::mem::replace(&mut self.tracer.enabled, false);
        for line in self.script.setup_lines() {
            self.run_op(&line, OpKind::Mutate);
        }
        // The counts are of the traced stretch alone.
        self.counts = Counts::default();
        for lane in &mut self.lanes {
            lane.metrics = ServeMetrics::new();
            lane.io.reset();
        }
        self.tracer.enabled = spans;
        let script = self.script;
        let started = Instant::now();
        match script.workload.shape {
            Shape::Serve { .. } => {
                for i in 0..script.trace_len() {
                    for conn in 0..2 {
                        let op = script.closed_op(conn, i);
                        self.run_op(&op.line, op.kind);
                    }
                }
            }
            Shape::Epoch { .. } => {
                for round in 0..script.trace_len() {
                    for slot in 0..script.round_len() {
                        let op = script.closed_op(0, round * script.round_len() + slot);
                        self.run_op(&op.line, op.kind);
                    }
                    for k in 0..EPOCH_PACED_PER_ROUND {
                        let op = script.paced_op(1, round * EPOCH_PACED_PER_ROUND + k);
                        self.run_op(&op.line, op.kind);
                    }
                }
            }
        }
        started.elapsed().as_secs_f64()
    }
}

/// The engine's enforcement step, restated here because the engine's own is
/// private: a stride scheduler per resource, run for `quanta` quanta against
/// the granted shares, the resources fanned out over the pool as the engine
/// fans them. It times `ref-sched` on the tick's allocation; a change to how
/// the engine enforces would not show in it.
fn enforce(allocation: &Allocation, capacity: &Capacity, quanta: u64) -> Vec<Vec<f64>> {
    ref_pool::par_map(capacity.num_resources(), |resource| {
        let weights: Vec<f64> = allocation
            .bundles()
            .iter()
            .map(|b| (b.get(resource) / capacity.get(resource)).max(MIN_STRIDE_WEIGHT))
            .collect();
        let mut stride = StrideScheduler::new(weights).expect("positive weights");
        for _ in 0..quanta {
            stride.next_quantum();
        }
        stride.service_shares()
    })
}

/// Epoch wall time of a static REF population of `n` ground-truth agents:
/// the median of three ticks.
fn static_tick_ms(seed: u64, n: u64) -> f64 {
    let capacity = Capacity::new(vec![2.0 * n as f64, n as f64]).expect("positive capacity");
    let mut engine = MarketEngine::new(MarketConfig::new(capacity)).expect("default config");
    for id in 0..n {
        let a = Rng::keyed(seed, 0x5CA1E, id).range(0.1, 0.9);
        let truth = CobbDouglas::new(1.0, vec![a, 1.0 - a]).expect("valid elasticities");
        let _ = engine.apply_now(MarketEvent::AgentJoined {
            id,
            source: ObservationSource::GroundTruth(truth),
        });
    }
    let ticks: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let _ = engine.apply_now(MarketEvent::EpochTick);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ticks).expect("three ticks")
}

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything the traced run of one workload produced.
#[derive(Debug)]
pub struct TraceResult {
    /// Every check passed.
    pub correct: bool,
    pub checks: Vec<(&'static str, bool)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<LayerMetric>,
    pub spans: Vec<Span>,
}

impl TraceResult {
    /// The per-layer metrics by name.
    pub fn metrics_json(&self) -> Value {
        let pairs = self.metrics.iter().map(|m| {
            (
                m.name.to_string(),
                crate::results::metric_json(m.value, m.unit),
            )
        });
        Value::Obj(pairs.collect())
    }
}

/// Numbers the traced run takes from a short *served* run of the same ops:
/// gauges only the server can report, and the client-observed latencies the
/// derived metrics subtract the in-process work from.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServedProbe {
    pub closed_mean_latency_us: f64,
    pub mutate_p50_us: f64,
    pub query_p50_us: f64,
    pub ctx_switches_per_op: f64,
    pub bus_depth_max: f64,
    pub rejected_overload: f64,
    pub repl_lag_records_max: f64,
}

/// Name, unit and whether higher is better, of every per-layer metric, in
/// reporting order.
pub const LAYER_METRICS: &[(&str, &str, bool)] = &[
    ("serve.protocol.parse_ns", "ns", false),
    ("serve.protocol.request_bytes", "bytes", false),
    ("serve.json.encode_ns", "ns", false),
    ("serve.json.decode_ns", "ns", false),
    ("serve.json.reply_bytes", "bytes", false),
    ("serve.json.tick_reply_bytes", "bytes", false),
    ("serve.core.handle_mutation_self_ns", "ns", false),
    ("serve.core.handle_query_ns", "ns", false),
    ("serve.core.handle_tick_self_us", "us", false),
    ("serve.wal.append_ns", "ns", false),
    ("serve.wal.bytes_per_append", "bytes", false),
    ("serve.wal.writes_per_append", "count", false),
    ("serve.wal.fsyncs_per_append", "count", false),
    ("serve.wal.fsync_us", "us", false),
    ("serve.wal.checkpoint_ms", "ms", false),
    ("serve.wal.checkpoint_bytes", "bytes", false),
    ("serve.wal.checkpoints", "count", false),
    ("serve.wal.amplification", "ratio", false),
    ("serve.wal.recover_ms", "ms", false),
    ("serve.repl.frame_encode_ns", "ns", false),
    ("serve.repl.frame_decode_ns", "ns", false),
    ("serve.repl.apply_ns", "ns", false),
    ("serve.repl.apply_tick_ms", "ms", false),
    ("serve.repl.lag_records_max", "count", false),
    ("serve.repl.ack_wait_us", "us", false),
    ("serve.shard.ring_lookup_ns", "ns", false),
    ("serve.shard.coordinator_step_us", "us", false),
    ("serve.shard.reallotments", "count", false),
    ("serve.bus.depth_max", "count", false),
    ("serve.bus.rejected_overload", "count", false),
    ("serve.server.transport_us", "us", false),
    ("serve.server.ctx_switches_per_op", "count", false),
    ("market.engine.observe_ns", "ns", false),
    ("market.engine.join_ns", "ns", false),
    ("market.engine.leave_ns", "ns", false),
    ("market.engine.demand_ns", "ns", false),
    ("market.engine.tick_ms", "ms", false),
    ("market.engine.tick_self_ms", "ms", false),
    ("market.engine.cache_hit_share", "share", true),
    ("market.engine.refits_per_tick", "count", false),
    ("market.engine.warm_hit_share", "share", true),
    ("market.engine.tick_ms.n250", "ms", false),
    ("market.engine.tick_ms.n1000", "ms", false),
    ("market.engine.tick_ms.n4000", "ms", false),
    ("core.properties.audit_ms", "ms", false),
    ("core.properties.pair_evals", "count", false),
    ("core.mechanism.allocate_cold_us", "us", false),
    ("core.mechanism.allocate_warm_us", "us", false),
    ("core.online.observe_ns", "ns", false),
    ("solver.update.append_ns", "ns", false),
    ("market.ledger.accrue_us", "us", false),
    ("market.warm.hint_us", "us", false),
    ("market.snapshot.encode_ms", "ms", false),
    ("market.snapshot.bytes", "bytes", false),
    ("market.snapshot.fingerprint_us", "us", false),
    ("market.snapshot.restore_ms", "ms", false),
    ("sched.stride.enforce_us", "us", false),
    ("pool.width", "count", true),
    ("trace.overhead_share", "share", false),
];

/// Replays `script` in process and derives the per-layer metrics. `dir` is
/// scratch space for the shadow logs (removed afterwards).
pub fn trace_workload(
    script: &Script,
    dir: &Path,
    probe: ServedProbe,
) -> Result<TraceResult, String> {
    let io = |e: std::io::Error| format!("trace {}: {e}", script.workload.name);

    // Spans off and on over the real path alone: the tracing overhead. The
    // passes alternate and each side counts its fastest, so neither the
    // first pass's cold caches nor a slow stretch of the host is charged to
    // one side.
    let (mut plain_s, mut spanned_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..OVERHEAD_PASSES {
        plain_s = plain_s.min(Replay::new(script, dir, false, false).map_err(io)?.run());
        spanned_s = spanned_s.min(Replay::new(script, dir, true, false).map_err(io)?.run());
    }

    let mut replay = Replay::new(script, dir, true, true).map_err(io)?;
    replay.run();
    let counts = replay.counts.clone();
    let ops = counts.ops as usize;
    let layers = summarize(&replay.tracer.spans, ops);
    let time = |layer: Layer| layers.get(&layer).copied().unwrap_or_default();

    // The shadows saw the events the real cores saw, and the standby saw
    // them through the frame codec: all three must agree.
    let mut checks = vec![("replies_ok", counts.failed == 0)];
    let (mut shadows_equal, mut standbys_equal) = (true, true);
    let mut io_totals = [0u64; 5];
    let (mut wal_appends, mut checkpoints) = (0, 0);
    let mut reallotments = 0;
    let (mut cache_hits, mut reallocations, mut warm_hits, mut warm_misses) = (0, 0, 0, 0);
    for lane in &replay.lanes {
        let shadow = lane.shadow.as_ref().expect("main pass has shadows");
        let real = lane.core.final_snapshot();
        shadows_equal &= shadow.engine.snapshot().encode() == real;
        if let Some(standby) = &shadow.standby {
            standbys_equal &= standby.final_snapshot() == real;
        }
        for (total, counter) in io_totals.iter_mut().zip([
            &lane.io.appends,
            &lane.io.append_bytes,
            &lane.io.syncs,
            &lane.io.sync_ns,
            &lane.io.file_write_bytes,
        ]) {
            *total += counter.load(Ordering::Relaxed);
        }
        wal_appends += lane.metrics.wal_appends.load(Ordering::Relaxed);
        checkpoints += lane.metrics.checkpoints.load(Ordering::Relaxed);
        let m = shadow.engine.metrics();
        reallotments += m.reallotments;
        cache_hits += m.cache_hits;
        reallocations += m.reallocations;
        warm_hits += m.warm_start_hits;
        warm_misses += m.warm_start_misses;
    }
    let [io_writes, io_append_bytes, io_syncs, io_sync_ns, io_file_bytes] = io_totals;
    let per_append = |total: u64| total as f64 / wal_appends.max(1) as f64;

    // One-off timings on shard 0: restore its snapshot, and recover the log
    // its core wrote.
    let lane0 = replay.lanes.remove(0);
    let snapshot_text = lane0.core.final_snapshot();
    let started = Instant::now();
    let restored = MarketSnapshot::decode(&snapshot_text)
        .and_then(|snapshot| MarketEngine::restore(&snapshot));
    let restore_ms = started.elapsed().as_secs_f64() * 1e3;
    checks.push(("shadow_engine_equals_core", shadows_equal));
    checks.push(("shadow_standby_equals_core", standbys_equal));
    checks.push((
        "restore_round_trips",
        restored.is_ok_and(|engine| engine.snapshot().encode() == snapshot_text),
    ));
    drop(lane0);
    let mut recover_ms = 0.0;
    if let Some(config) = wal_config(script.workload.durability, &dir.join("shard-0/wal")) {
        let started = Instant::now();
        let recovered = ServiceCore::recover(
            shard_market_config(&script.workload.market(), script.workload.shards),
            JournalLimit::default(),
            config,
            FaultPlan::none(),
        );
        recover_ms = started.elapsed().as_secs_f64() * 1e3;
        checks.push((
            "recovered_log_equals_core",
            recovered.is_ok_and(|core| core.final_snapshot() == snapshot_text),
        ));
    }
    let _ = std::fs::remove_dir_all(dir);

    let curve = |n: u64| match script.workload.ref_epoch {
        true => static_tick_ms(script.seed, n),
        false => 0.0,
    };

    let share = |hits: u64, misses: u64| match hits + misses {
        0 => 0.0,
        total => hits as f64 / total as f64,
    };
    // What one served op costs in process. On a durable workload the real
    // core's `handle` includes its log.
    let in_process_us = time(Layer::Op).mean_ns / 1e3;
    let mutate_in_process_us = time(Layer::HandleMutate).mean_ns / 1e3;
    let query_in_process_us = time(Layer::HandleQuery).mean_ns / 1e3;

    // Each value beside its name: the order is checked against the table.
    let values: Vec<(&str, f64)> = vec![
        ("serve.protocol.parse_ns", time(Layer::Parse).mean_ns),
        (
            "serve.protocol.request_bytes",
            counts.request_bytes as f64 / ops.max(1) as f64,
        ),
        ("serve.json.encode_ns", time(Layer::Encode).mean_ns),
        ("serve.json.decode_ns", time(Layer::Decode).mean_ns),
        (
            "serve.json.reply_bytes",
            counts.reply_bytes as f64 / counts.replies.max(1) as f64,
        ),
        (
            "serve.json.tick_reply_bytes",
            counts.tick_reply_bytes as f64 / counts.ticks.max(1) as f64,
        ),
        (
            "serve.core.handle_mutation_self_ns",
            time(Layer::HandleMutate).self_mean_ns,
        ),
        (
            "serve.core.handle_query_ns",
            time(Layer::HandleQuery).mean_ns,
        ),
        (
            "serve.core.handle_tick_self_us",
            time(Layer::HandleTick).self_mean_ns / 1e3,
        ),
        ("serve.wal.append_ns", time(Layer::WalAppend).mean_ns),
        ("serve.wal.bytes_per_append", per_append(io_append_bytes)),
        ("serve.wal.writes_per_append", per_append(io_writes)),
        ("serve.wal.fsyncs_per_append", per_append(io_syncs)),
        (
            "serve.wal.fsync_us",
            io_sync_ns as f64 / 1e3 / io_syncs.max(1) as f64,
        ),
        (
            "serve.wal.checkpoint_ms",
            time(Layer::WalCheckpoint).mean_ns / 1e6,
        ),
        (
            "serve.wal.checkpoint_bytes",
            io_file_bytes as f64 / checkpoints.max(1) as f64,
        ),
        ("serve.wal.checkpoints", checkpoints as f64),
        (
            "serve.wal.amplification",
            (io_append_bytes + io_file_bytes) as f64 / counts.mutation_request_bytes.max(1) as f64,
        ),
        ("serve.wal.recover_ms", recover_ms),
        (
            "serve.repl.frame_encode_ns",
            time(Layer::FrameEncode).mean_ns,
        ),
        (
            "serve.repl.frame_decode_ns",
            time(Layer::FrameDecode).mean_ns,
        ),
        ("serve.repl.apply_ns", time(Layer::ReplApply).mean_ns),
        (
            "serve.repl.apply_tick_ms",
            time(Layer::ReplApplyTick).mean_ns / 1e6,
        ),
        ("serve.repl.lag_records_max", probe.repl_lag_records_max),
        // Mutation latency explained neither by the transport (what a
        // query pays) nor by in-process work: the wait for the standby.
        (
            "serve.repl.ack_wait_us",
            (probe.mutate_p50_us - probe.query_p50_us)
                - (mutate_in_process_us - query_in_process_us),
        ),
        (
            "serve.shard.ring_lookup_ns",
            time(Layer::RingLookup).mean_ns,
        ),
        (
            "serve.shard.coordinator_step_us",
            time(Layer::CoordinatorStep).mean_ns / 1e3,
        ),
        ("serve.shard.reallotments", reallotments as f64),
        ("serve.bus.depth_max", probe.bus_depth_max),
        ("serve.bus.rejected_overload", probe.rejected_overload),
        (
            "serve.server.transport_us",
            probe.closed_mean_latency_us - in_process_us,
        ),
        (
            "serve.server.ctx_switches_per_op",
            probe.ctx_switches_per_op,
        ),
        (
            "market.engine.observe_ns",
            time(Layer::EngineObserve).mean_ns,
        ),
        ("market.engine.join_ns", time(Layer::EngineJoin).mean_ns),
        ("market.engine.leave_ns", time(Layer::EngineLeave).mean_ns),
        ("market.engine.demand_ns", time(Layer::EngineDemand).mean_ns),
        (
            "market.engine.tick_ms",
            time(Layer::EngineTick).mean_ns / 1e6,
        ),
        (
            "market.engine.tick_self_ms",
            time(Layer::EngineTick).self_mean_ns / 1e6,
        ),
        (
            "market.engine.cache_hit_share",
            share(cache_hits, reallocations),
        ),
        (
            "market.engine.refits_per_tick",
            counts.refits as f64 / counts.ticks.max(1) as f64,
        ),
        (
            "market.engine.warm_hit_share",
            share(warm_hits, warm_misses),
        ),
        ("market.engine.tick_ms.n250", curve(250)),
        ("market.engine.tick_ms.n1000", curve(1000)),
        ("market.engine.tick_ms.n4000", curve(4000)),
        ("core.properties.audit_ms", time(Layer::Audit).mean_ns / 1e6),
        ("core.properties.pair_evals", counts.pair_evals as f64),
        (
            "core.mechanism.allocate_cold_us",
            time(Layer::AllocateCold).mean_ns / 1e3,
        ),
        (
            "core.mechanism.allocate_warm_us",
            time(Layer::AllocateWarm).mean_ns / 1e3,
        ),
        ("core.online.observe_ns", time(Layer::OnlineObserve).mean_ns),
        ("solver.update.append_ns", time(Layer::LstsqAppend).mean_ns),
        (
            "market.ledger.accrue_us",
            time(Layer::LedgerAccrue).mean_ns / 1e3,
        ),
        ("market.warm.hint_us", time(Layer::WarmHint).mean_ns / 1e3),
        (
            "market.snapshot.encode_ms",
            time(Layer::SnapshotEncode).mean_ns / 1e6,
        ),
        ("market.snapshot.bytes", counts.snapshot_bytes as f64),
        (
            "market.snapshot.fingerprint_us",
            time(Layer::SnapshotFingerprint).mean_ns / 1e3,
        ),
        ("market.snapshot.restore_ms", restore_ms),
        (
            "sched.stride.enforce_us",
            time(Layer::StrideEnforce).mean_ns / 1e3,
        ),
        ("pool.width", ref_pool::threads() as f64),
        ("trace.overhead_share", (spanned_s - plain_s) / plain_s),
    ];
    assert_eq!(values.len(), LAYER_METRICS.len(), "one value per metric");
    let metrics = LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), (named, value))| {
            assert_eq!(name, named, "values follow the order of LAYER_METRICS");
            LayerMetric { name, unit, value }
        })
        .collect();

    Ok(TraceResult {
        correct: checks.iter().all(|(_, pass)| *pass),
        checks,
        attempted: counts.ops,
        failed: counts.failed,
        metrics,
        spans: std::mem::take(&mut replay.tracer.spans),
    })
}

/// The trace file: span rows `[layer, parent, op, start_ns, end_ns]` with
/// the layer names alongside (`parent` is -1 for a root span).
pub fn spans_to_json(workload: &str, spans: &[Span]) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let mut out = String::with_capacity(spans.len() * 40 + 256);
    let mut rows = String::with_capacity(spans.len() * 40);
    for (i, span) in spans.iter().enumerate() {
        let name = span.layer.name();
        let id = names.iter().position(|n| *n == name).unwrap_or_else(|| {
            names.push(name);
            names.len() - 1
        });
        let parent = if span.parent == ROOT {
            -1
        } else {
            i64::from(span.parent)
        };
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            "[{id},{parent},{},{},{}]",
            span.op, span.start_ns, span.end_ns
        ));
    }
    out.push_str(&format!(
        "{{\"workload\":\"{workload}\",\"columns\":[\"layer\",\"parent\",\"op\",\"start_ns\",\"end_ns\"],\"layers\":["
    ));
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\""));
    }
    out.push_str("],\"spans\":[");
    out.push_str(&rows);
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, op: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            op,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        // One op: handle takes 100 ns, its two shadow children 30 + 20 ns
        // (recorded later in wall time, but naming handle as parent).
        let spans = vec![
            span(Layer::Op, ROOT, 0, 0, 150),
            span(Layer::HandleMutate, 0, 0, 10, 110),
            span(Layer::EngineObserve, 1, 0, 200, 230),
            span(Layer::WalAppend, 1, 0, 230, 250),
        ];
        let layers = summarize(&spans, 1);
        let handle = layers[&Layer::HandleMutate];
        assert_eq!(
            (handle.count, handle.mean_ns, handle.self_mean_ns),
            (1, 100.0, 50.0)
        );
        assert_eq!(layers[&Layer::Op].self_mean_ns, 50.0);
        assert_eq!(layers[&Layer::EngineObserve].mean_ns, 30.0);
    }

    #[test]
    fn layer_means_are_medians_of_segment_means() {
        // Ten ops; the ops of segment 2 (ops 4, 5) are 100x slower.
        let spans: Vec<Span> = (0..10)
            .map(|op| {
                let dur = if op / 2 == 2 { 1000 } else { 10 };
                span(Layer::Parse, ROOT, op, 0, dur)
            })
            .collect();
        assert_eq!(summarize(&spans, 10)[&Layer::Parse].mean_ns, 10.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let got = tracer.timed(Layer::Parse, ROOT, 0, || 7);
        assert_eq!(got, 7);
        assert!(tracer.spans.is_empty());
        let mut tracer = Tracer::new(true);
        let parent = tracer.begin(Layer::Op, ROOT, 3);
        tracer.timed(Layer::Parse, parent, 3, || ());
        tracer.end(parent);
        assert_eq!(tracer.spans.len(), 2);
        assert_eq!(tracer.spans[1].parent, 0);
        assert!(tracer.spans[0].end_ns >= tracer.spans[1].end_ns);
        let json = spans_to_json("w", &tracer.spans);
        assert!(
            json.contains(r#""layers":["op","serve.protocol.parse"]"#),
            "{json}"
        );
        assert!(Value::parse(json.trim()).is_ok());
    }

    #[test]
    fn traced_replay_is_correct_and_its_counts_repeat() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/tmp/trace-test-{}", std::process::id()));
        // One workload per kind of core: sharded and bare, logged with
        // fsync, logged and replicated.
        for name in ["serve_shard4", "serve_wal_fsync", "serve_repl_sync"] {
            let script = Script::new(crate::script::workload(name).unwrap(), 11, 0.05);
            let run = || {
                let got = trace_workload(&script, &dir, ServedProbe::default()).unwrap();
                assert!(got.correct, "{name}: {:?}", got.checks);
                assert_eq!(got.failed, 0);
                got.metrics
                    .into_iter()
                    .filter(|m| matches!(m.unit, "bytes" | "count" | "ratio"))
                    .map(|m| (m.name, m.value))
                    .collect::<Vec<_>>()
            };
            let first = run();
            assert_eq!(first, run(), "{name}");
            let value = |name: &str| first.iter().find(|(n, _)| *n == name).unwrap().1;
            assert!(value("serve.protocol.request_bytes") > 10.0);
            assert!(value("core.properties.pair_evals") > 0.0);
            // The log's counts are those of the workload's own core.
            let logged = name != "serve_shard4";
            assert_eq!(value("serve.wal.writes_per_append") >= 1.0, logged);
            assert_eq!(
                value("serve.wal.fsyncs_per_append") >= 1.0,
                name == "serve_wal_fsync"
            );
            assert_eq!(value("serve.shard.reallotments") > 0.0, !logged);
        }
    }
}

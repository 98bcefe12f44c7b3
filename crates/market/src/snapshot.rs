//! Versioned snapshot/restore of full market state.
//!
//! A [`MarketSnapshot`] captures everything a restarted service needs to
//! resume a market mid-run: configuration, epoch counters, each agent's
//! estimator state (its triangular factor, fit and counters: `O(R²)` per
//! agent however long the market has run), the allocation cache, and the
//! audit/metric counters.
//!
//! The wire format is a line-oriented text document. Every `f64` is
//! stored as the hexadecimal form of its IEEE-754 bits, so encode →
//! decode → restore reproduces the original state *bit for bit* — the
//! restored market's next epoch allocates identically to the original's.
//! Lines are self-describing (`capacity …`, `agent …`, `factor …`), parsed
//! strictly in order, and the leading `refmarket-snapshot v4` magic
//! rejects foreign, older and future documents up front with a typed
//! `unsupported version` error.
//!
//! One walker, `StateView::walk`, traverses the state in document order
//! over a borrowed view that both [`MarketEngine`](crate::engine::MarketEngine)
//! and [`MarketSnapshot`] provide, and drives one of two sinks: the text
//! sink, which writes the document ([`MarketSnapshot::encode`], and the
//! engine's [`write_snapshot`](crate::engine::MarketEngine::write_snapshot),
//! which streams it in chunks without cloning anything), and the digest
//! sink (`StateHasher`), which computes the state fingerprint.
//! No other field list exists besides [`MarketSnapshot::decode`], the
//! strict, independent parser. It refuses, with
//! [`MarketError::Snapshot`], any estimator state no sequence of
//! observations could have produced ([`EstimatorState::check`]).

use std::io::{self, Write as _};
use std::str::{FromStr, SplitWhitespace};

use ref_core::online::{EstimatorState, UpdatableLstsq};
use ref_core::resource::{Allocation, Bundle, Capacity};
use ref_core::utility::CobbDouglas;

use crate::agent::{AgentId, ObservationSource};
use crate::audit::Auditor;
use crate::digest::StateHasher;
use crate::engine::{Fingerprint, MarketConfig, MechanismKind};
use crate::error::{MarketError, Result};
use crate::ledger::CreditLedger;
use crate::metrics::MarketMetrics;
use crate::warm::WarmStartCache;

/// The snapshot format version this build reads and writes.
///
/// v2 added the allocation mechanism to the config section, the
/// warm-start cache section, and the warm-start/incremental-refit
/// counters to the metrics line. v3 added the temporal-SI audit config,
/// the credit ledger section, the fingerprint tilt line, and the
/// temporal/credit counters on the auditor and metrics lines. v4 replaced
/// each agent's observation log (`obs`/`o` lines, replayed on restore)
/// with its estimator state (`est`, `fit`, `r2` and `factor` lines,
/// loaded as they are).
pub(crate) const SNAPSHOT_VERSION: u32 = 4;

const MAGIC: &str = "refmarket-snapshot";

/// One agent's persisted state: identity, source, estimator state.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSnapshot {
    /// The agent's stable id.
    pub id: AgentId,
    /// Epoch the agent was admitted.
    pub joined_epoch: u64,
    /// How the agent's observations are produced.
    pub source: ObservationSource,
    /// The estimator's state; restoring it reconstructs the estimator
    /// exactly.
    pub estimator: EstimatorState,
}

/// Full market state at a point in time.
///
/// Produced by [`MarketEngine::snapshot`](crate::engine::MarketEngine::snapshot),
/// consumed by [`MarketEngine::restore`](crate::engine::MarketEngine::restore);
/// [`encode`](MarketSnapshot::encode) / [`decode`](MarketSnapshot::decode)
/// convert to and from the text wire format.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketSnapshot {
    /// Format version (`SNAPSHOT_VERSION`).
    pub version: u32,
    /// The market's static configuration.
    pub config: MarketConfig,
    /// Next epoch number to execute.
    pub epoch: u64,
    /// Epoch of the last membership or demand change (warm-up anchor).
    pub stable_since: u64,
    /// Fairness-audit counters.
    pub auditor: Auditor,
    /// Service counters.
    pub metrics: MarketMetrics,
    /// The reallocation cache: population fingerprint and the allocation
    /// it maps to. Restored bit-exactly so cache decisions — and with
    /// them the served allocation bits — survive a restart.
    pub cache: Option<(Fingerprint, Allocation)>,
    /// The warm-start cache seeding optimization-backed mechanisms.
    /// Restored bit-exactly so a restarted market's next GP solve starts
    /// from the same point — and lands on the same bits — as the
    /// original's would have.
    pub warm: WarmStartCache,
    /// The credit ledger: per-agent balances and delivered/entitled
    /// windows.
    pub ledger: CreditLedger,
    /// Live agents in ascending id order.
    pub agents: Vec<AgentSnapshot>,
}

/// Borrowed market state, which [`MarketEngine`](crate::engine::MarketEngine)
/// and [`MarketSnapshot`] both provide: what [`StateView::walk`] reads.
pub(crate) struct StateView<'a, A> {
    pub version: u32,
    pub config: &'a MarketConfig,
    pub epoch: u64,
    pub stable_since: u64,
    pub auditor: &'a Auditor,
    pub metrics: &'a MarketMetrics,
    pub cache: Option<&'a (Fingerprint, Allocation)>,
    pub warm: &'a WarmStartCache,
    pub ledger: &'a CreditLedger,
    /// Live agents in ascending id order.
    pub agents: A,
}

/// One agent's borrowed state.
pub(crate) struct AgentView<'a> {
    pub id: AgentId,
    pub joined_epoch: u64,
    pub source: &'a ObservationSource,
    pub estimator: &'a EstimatorState,
}

/// What the walker emits, token by token: the text sink writes the
/// snapshot document, the digest sink ([`StateHasher`]) the fingerprint.
/// Each method says what the two make of its token.
pub(crate) trait Sink {
    /// The magic line; the digest takes the version.
    fn header(&mut self, version: u32);
    /// Starts a line. Its tag is a fixed word of the format, so only the
    /// text carries it.
    fn line(&mut self, tag: &'static str) -> &mut Self;
    /// A counter, id or grid coordinate: decimal in the text, its 64-bit
    /// two's complement in the digest.
    fn int(&mut self, v: impl Into<i128>);
    /// A float: the hex of its bits in the text.
    fn f64(&mut self, x: f64);
    /// The length of a run the text ends with its line; the digest takes
    /// it, so two different states never feed the same words.
    fn len(&mut self, n: usize);
    /// The word naming a variant; the digest takes its index.
    fn variant(&mut self, index: u64, word: &str);
    /// A free-form name; the digest takes its length and bytes.
    fn name(&mut self, name: &str);

    /// A run of floats, prefixed by its length.
    fn f64s(&mut self, xs: &[f64]) {
        self.len(xs.len());
        xs.iter().for_each(|x| self.f64(*x));
    }
}

impl<'a, A: ExactSizeIterator<Item = AgentView<'a>>> StateView<'a, A> {
    /// The one traversal of market state, in document order; returns
    /// the sink.
    pub(crate) fn walk<S: Sink>(self, mut s: S) -> S {
        let c = self.config;
        s.header(self.version);
        s.line("capacity").f64s(c.capacity.as_slice());
        s.line("tolerance").f64(c.realloc_tolerance);
        s.line("audit-tolerance").f64(c.audit_tolerance);
        s.line("warmup").int(c.warmup_epochs);
        s.line("excitation").f64(c.excitation);
        s.line("quanta").int(c.enforcement_quanta);
        s.line("sim-instructions").int(c.sim_instructions);
        s.line("seed").int(c.seed);
        s.line("mechanism").name(c.mechanism.label());
        s.line("temporal-window").int(c.temporal_window);
        s.line("temporal-slack").f64(c.temporal_slack);
        s.line("epoch").int(self.epoch);
        s.line("stable-since").int(self.stable_since);

        let a = self.auditor;
        s.line("auditor");
        for v in [
            a.epochs_audited,
            a.si_violation_epochs,
            a.ef_violation_epochs,
            a.pe_violation_epochs,
            a.si_after_warmup,
            a.ef_after_warmup,
            a.pe_after_warmup,
            a.temporal_si_violation_epochs,
            a.temporal_si_after_warmup,
        ] {
            s.int(v);
        }
        // `warm_start_fallbacks` is a process-lifetime solver diagnostic,
        // not replicated state.
        let m = self.metrics;
        s.line("metrics");
        for v in [
            m.epochs,
            m.events,
            m.joins,
            m.leaves,
            m.demand_changes,
            m.external_observations,
            m.reallocations,
            m.cache_hits,
            m.refits,
            m.rejected_events,
            m.degenerate_refits,
            m.quarantines,
            m.reallotments,
            m.warm_start_hits,
            m.warm_start_misses,
            m.incremental_refits,
            m.credits_accrued,
            m.credits_spent,
            m.temporal_si_violations,
        ] {
            s.int(v);
        }

        match self.cache {
            None => s.line("cache").variant(0, "none"),
            Some((fp, alloc)) => {
                s.line("cache").variant(1, "present");
                s.line("fp-ids").len(fp.ids.len());
                fp.ids.iter().for_each(|id| s.int(*id));
                s.line("fp-quant").len(fp.quantized.len());
                fp.quantized.iter().for_each(|q| s.int(*q));
                // Capacity bits are written as the floats they are.
                s.line("fp-capacity").len(fp.capacity_bits.len());
                fp.capacity_bits
                    .iter()
                    .for_each(|b| s.f64(f64::from_bits(*b)));
                s.line("fp-tilt").len(fp.tilt.len());
                fp.tilt.iter().for_each(|t| s.int(*t));
                s.line("bundles").int(alloc.num_agents() as u64);
                for b in alloc.bundles() {
                    s.line("bundle").f64s(b.as_slice());
                }
            }
        }

        let (warm_bundles, warm_aux, warm_t) = self.warm.parts();
        s.line("warm").int(warm_bundles.len() as u64);
        // An emptied cache carries nothing else.
        if !warm_bundles.is_empty() {
            for (id, bundle) in &warm_bundles {
                s.line("w").int(*id);
                s.f64s(bundle);
            }
            s.line("warm-aux").f64s(warm_aux);
            s.line("warm-t").f64(warm_t);
        }

        s.line("ledger").int(self.ledger.len() as u64);
        for (id, entry) in self.ledger.iter() {
            s.line("l").int(id);
            s.f64(entry.balance);
            s.int(entry.window.len() as u64);
            for (delivered, entitled) in entry.window.iter() {
                s.f64(delivered);
                s.f64(entitled);
            }
        }

        s.line("agents").int(self.agents.len() as u64);
        for agent in self.agents {
            s.line("agent").int(agent.id);
            s.int(agent.joined_epoch);
            match agent.source {
                ObservationSource::GroundTruth(u) => {
                    s.line("source").variant(0, "truth");
                    s.f64(u.scale());
                    s.f64s(u.elasticities());
                }
                ObservationSource::Simulated { benchmark } => {
                    s.line("source").variant(1, "sim");
                    s.name(benchmark);
                }
                ObservationSource::External => s.line("source").variant(2, "external"),
            }
            let e = agent.estimator;
            s.line("est");
            for v in [
                e.refits,
                e.incremental_refits,
                e.degenerate_refits,
                e.consecutive_degenerate,
            ] {
                s.int(v as u64);
            }
            s.line("fit").f64(e.utility.scale());
            s.f64s(e.utility.elasticities());
            match e.r_squared {
                None => s.line("r2").variant(0, "none"),
                Some(r2) => {
                    s.line("r2").variant(1, "some");
                    s.f64(r2);
                }
            }
            let (sum_y, sum_yy) = e.factor.sums();
            s.line("factor").int(e.factor.rows() as u64);
            s.f64(sum_y);
            s.f64(sum_yy);
            s.len(UpdatableLstsq::triangle_len(e.factor.num_coefficients()));
            e.factor.triangle().for_each(|x| s.f64(x));
        }
        s.line("end");
        s
    }

    /// Streams the snapshot text to `out` in chunks.
    pub(crate) fn write_text(self, out: &mut dyn FnMut(&[u8]) -> io::Result<()>) -> io::Result<()> {
        let mut sink = self.walk(TextSink {
            chunk: Vec::with_capacity(CHUNK_BYTES + 256),
            out,
            result: Ok(()),
        });
        sink.put(b"\n");
        sink.flush();
        sink.result
    }

    /// The snapshot text.
    pub(crate) fn text(self) -> String {
        let mut text = Vec::new();
        let all = self.write_text(&mut |chunk| {
            text.extend_from_slice(chunk);
            Ok(())
        });
        all.expect("collecting text cannot fail");
        String::from_utf8(text).expect("the snapshot text is ASCII")
    }
}

/// How much text the text sink gathers before handing it on.
const CHUNK_BYTES: usize = 64 << 10;

/// The text sink: gathers the document in chunks for `out`, keeping the
/// first error `out` returns. A line ends where the next one starts.
/// Tokens are written into `chunk`, which cannot fail; whichever token
/// fills it hands the chunk on, so no chunk outgrows the bound by more
/// than one token.
struct TextSink<'w> {
    chunk: Vec<u8>,
    out: &'w mut dyn FnMut(&[u8]) -> io::Result<()>,
    result: io::Result<()>,
}

impl TextSink<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.chunk.extend_from_slice(bytes);
        self.spill();
    }

    fn spill(&mut self) {
        if self.chunk.len() >= CHUNK_BYTES {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.result.is_ok() {
            self.result = (self.out)(&self.chunk);
        }
        self.chunk.clear();
    }
}

impl Sink for TextSink<'_> {
    fn header(&mut self, version: u32) {
        self.put(format!("{MAGIC} v{version}").as_bytes());
    }

    fn line(&mut self, tag: &'static str) -> &mut Self {
        self.put(b"\n");
        self.put(tag.as_bytes());
        self
    }

    fn int(&mut self, v: impl Into<i128>) {
        let _ = write!(self.chunk, " {}", v.into());
        self.spill();
    }

    fn f64(&mut self, x: f64) {
        let _ = write!(self.chunk, " {:016x}", x.to_bits());
        self.spill();
    }

    fn len(&mut self, _: usize) {}

    fn variant(&mut self, _: u64, word: &str) {
        self.name(word);
    }

    fn name(&mut self, name: &str) {
        self.put(b" ");
        self.put(name.as_bytes());
    }
}

impl MarketSnapshot {
    fn view(&self) -> StateView<'_, impl ExactSizeIterator<Item = AgentView<'_>>> {
        StateView {
            version: self.version,
            config: &self.config,
            epoch: self.epoch,
            stable_since: self.stable_since,
            auditor: &self.auditor,
            metrics: &self.metrics,
            cache: self.cache.as_ref(),
            warm: &self.warm,
            ledger: &self.ledger,
            agents: self.agents.iter().map(|a| AgentView {
                id: a.id,
                joined_epoch: a.joined_epoch,
                source: &a.source,
                estimator: &a.estimator,
            }),
        }
    }

    /// Serializes the snapshot to the text wire format.
    pub fn encode(&self) -> String {
        self.view().text()
    }

    /// A 64-bit digest of everything [`MarketSnapshot::encode`] writes,
    /// computed from the fields themselves (no text is produced).
    ///
    /// Two engines whose histories diverged — even by one bit of one
    /// `f64` — produce different fingerprints with overwhelming
    /// probability, while bit-identical replicas always agree. Equal to
    /// [`MarketEngine::state_fingerprint`](crate::engine::MarketEngine::state_fingerprint)
    /// of the engine the snapshot was taken from (and of one restored
    /// from it): both walk the same fields.
    pub fn fingerprint(&self) -> u64 {
        self.view().walk(StateHasher::new()).finish()
    }

    /// Parses a snapshot from the text wire format.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::Snapshot`] on bad magic, an unsupported
    /// version, any malformed, missing or trailing line, or an estimator
    /// state that fails [`EstimatorState::check`].
    pub fn decode(text: &str) -> Result<MarketSnapshot> {
        let mut lines = Reader::new(text);
        let header = lines.line("header")?;
        let version = header
            .strip_prefix(MAGIC)
            .map(str::trim)
            .and_then(|v| v.strip_prefix('v'))
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| bad(format!("not a {MAGIC} document: {header:?}")))?;
        if version != SNAPSHOT_VERSION {
            return Err(bad(format!(
                "unsupported version {version} (supported: {SNAPSHOT_VERSION})"
            )));
        }

        let capacity =
            Capacity::new(lines.tagged_f64s("capacity")?).map_err(|e| bad(e.to_string()))?;
        let config = MarketConfig {
            capacity: capacity.clone(),
            realloc_tolerance: lines.tagged_f64("tolerance")?,
            audit_tolerance: lines.tagged_f64("audit-tolerance")?,
            warmup_epochs: lines.tagged_u64("warmup")?,
            excitation: lines.tagged_f64("excitation")?,
            enforcement_quanta: lines.tagged_u64("quanta")?,
            sim_instructions: lines.tagged_u64("sim-instructions")?,
            seed: lines.tagged_u64("seed")?,
            mechanism: {
                let label = lines.tagged("mechanism")?;
                MechanismKind::from_label(label)
                    .ok_or_else(|| bad(format!("unknown mechanism {label:?}")))?
            },
            temporal_window: lines.tagged_u64("temporal-window")?,
            temporal_slack: lines.tagged_f64("temporal-slack")?,
        };
        let epoch = lines.tagged_u64("epoch")?;
        let stable_since = lines.tagged_u64("stable-since")?;

        let a = lines.tagged_u64s("auditor", 9)?;
        let auditor = Auditor {
            epochs_audited: a[0],
            si_violation_epochs: a[1],
            ef_violation_epochs: a[2],
            pe_violation_epochs: a[3],
            si_after_warmup: a[4],
            ef_after_warmup: a[5],
            pe_after_warmup: a[6],
            temporal_si_violation_epochs: a[7],
            temporal_si_after_warmup: a[8],
        };
        let m = lines.tagged_u64s("metrics", 19)?;
        let metrics = MarketMetrics {
            epochs: m[0],
            events: m[1],
            joins: m[2],
            leaves: m[3],
            demand_changes: m[4],
            external_observations: m[5],
            reallocations: m[6],
            cache_hits: m[7],
            refits: m[8],
            rejected_events: m[9],
            degenerate_refits: m[10],
            quarantines: m[11],
            reallotments: m[12],
            warm_start_hits: m[13],
            warm_start_misses: m[14],
            // A process-lifetime solver diagnostic, not replicated state.
            warm_start_fallbacks: 0,
            incremental_refits: m[15],
            credits_accrued: m[16],
            credits_spent: m[17],
            temporal_si_violations: m[18],
        };

        let cache = match lines.tagged("cache")? {
            "none" => None,
            "present" => {
                let ids = lines.tagged_all("fp-ids")?;
                let quantized = lines.tagged_all("fp-quant")?;
                let capacity_bits = lines.tagged_f64s("fp-capacity")?;
                let tilt = lines.tagged_all("fp-tilt")?;
                let bundles = (0..lines.tagged_u64("bundles")?)
                    .map(|_| {
                        Bundle::new(lines.tagged_f64s("bundle")?).map_err(|e| bad(e.to_string()))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let alloc = Allocation::new(bundles, &capacity).map_err(|e| bad(e.to_string()))?;
                Some((
                    Fingerprint {
                        ids,
                        quantized,
                        capacity_bits: capacity_bits.into_iter().map(f64::to_bits).collect(),
                        tilt,
                    },
                    alloc,
                ))
            }
            other => return Err(bad(format!("cache must be present|none, got {other:?}"))),
        };

        let num_warm = lines.tagged_u64("warm")? as usize;
        let warm = if num_warm == 0 {
            WarmStartCache::new()
        } else {
            let bundles = (0..num_warm)
                .map(|_| {
                    let line = lines.tagged("w")?;
                    let mut toks = line.split_whitespace();
                    let id = next_token(&mut toks, "warm entry", line)?;
                    Ok((id, toks.map(parse_f64).collect::<Result<_>>()?))
                })
                .collect::<Result<Vec<_>>>()?;
            let aux = parse_f64s(lines.tagged("warm-aux")?)?;
            let barrier_t = lines.tagged_f64("warm-t")?;
            WarmStartCache::from_parts(bundles, aux, barrier_t)
        };

        let mut ledger = CreditLedger::new();
        let mut pairs = Vec::new();
        for _ in 0..lines.tagged_u64("ledger")? {
            let line = lines.tagged("l")?;
            let mut toks = line.split_whitespace();
            let id: AgentId = next_token(&mut toks, "ledger entry", line)?;
            let balance = parse_f64(toks.next().unwrap_or_default())?;
            let window_len: u64 = next_token(&mut toks, "ledger entry", line)?;
            pairs.clear();
            for tok in toks {
                pairs.push(parse_f64(tok)?);
            }
            let entry = |what: String| Err(bad(format!("ledger entry for agent {id}: {what}")));
            if !balance.is_finite() {
                return entry(format!("balance {balance} is not finite"));
            }
            if window_len > config.temporal_window {
                return entry(format!(
                    "a window of {window_len} exceeds the temporal window of {}",
                    config.temporal_window
                ));
            }
            if pairs.len() % 2 != 0 || (pairs.len() / 2) as u64 != window_len {
                return entry(format!(
                    "expected {window_len} window pairs, got {} values",
                    pairs.len()
                ));
            }
            let limit = usize::try_from(config.temporal_window).unwrap_or(usize::MAX);
            if !ledger.push_decoded(id, balance, &pairs, limit) {
                return entry("ids must be strictly ascending".to_string());
            }
        }

        let mut agents = Vec::new();
        for _ in 0..lines.tagged_u64("agents")? {
            let head = lines.tagged("agent")?;
            let mut toks = head.split_whitespace();
            let id = next_token(&mut toks, "agent header", head)?;
            let joined_epoch = next_token(&mut toks, "agent header", head)?;
            let src = lines.tagged("source")?;
            let source = if let Some(rest) = src.strip_prefix("truth") {
                let vals = parse_f64s(rest)?;
                let (scale, elasticities) = vals
                    .split_first()
                    .ok_or_else(|| bad("truth source needs a scale".to_string()))?;
                ObservationSource::GroundTruth(
                    CobbDouglas::new(*scale, elasticities.to_vec())
                        .map_err(|e| bad(e.to_string()))?,
                )
            } else if let Some(name) = src.strip_prefix("sim ") {
                ObservationSource::Simulated {
                    benchmark: name.trim().to_string(),
                }
            } else if src == "external" {
                ObservationSource::External
            } else {
                return Err(bad(format!("unknown source {src:?}")));
            };
            let estimator = lines.estimator(capacity.num_resources())?;
            agents.push(AgentSnapshot {
                id,
                joined_epoch,
                source,
                estimator,
            });
        }

        if lines.line("end")? != "end" {
            return Err(bad("missing end marker".to_string()));
        }
        if let Some(extra) = lines.next_nonempty() {
            return Err(bad(format!("trailing content: {extra:?}")));
        }

        Ok(MarketSnapshot {
            version,
            config,
            epoch,
            stable_since,
            auditor,
            metrics,
            cache,
            warm,
            ledger,
            agents,
        })
    }
}

fn bad(msg: String) -> MarketError {
    MarketError::Snapshot(msg)
}

fn parse_f64(token: &str) -> Result<f64> {
    u64::from_str_radix(token, 16)
        .map(f64::from_bits)
        .map_err(|e| bad(format!("bad f64 bits {token:?}: {e}")))
}

fn parse_f64s(text: &str) -> Result<Vec<f64>> {
    text.split_whitespace().map(parse_f64).collect()
}

/// Parses the next of `line`'s tokens; `what` names the line in the error.
fn next_token<T: FromStr>(toks: &mut SplitWhitespace<'_>, what: &str, line: &str) -> Result<T> {
    (toks.next().and_then(|t| t.parse().ok())).ok_or_else(|| bad(format!("{what} {line:?}")))
}

/// Strict sequential line reader.
struct Reader<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            lines: text.lines(),
        }
    }

    fn next_nonempty(&mut self) -> Option<&'a str> {
        self.lines.by_ref().map(str::trim).find(|l| !l.is_empty())
    }

    fn line(&mut self, what: &str) -> Result<&'a str> {
        self.next_nonempty()
            .ok_or_else(|| bad(format!("unexpected end of snapshot, wanted {what}")))
    }

    /// Reads the next line and strips the expected tag.
    fn tagged(&mut self, tag: &str) -> Result<&'a str> {
        let line = self.line(tag)?;
        line.strip_prefix(tag)
            .map(str::trim)
            .ok_or_else(|| bad(format!("expected {tag:?} line, got {line:?}")))
    }

    fn tagged_u64(&mut self, tag: &str) -> Result<u64> {
        self.tagged(tag)?
            .parse::<u64>()
            .map_err(|e| bad(format!("{tag}: {e}")))
    }

    /// Reads the next line, strips the expected tag and parses each of
    /// the remaining tokens.
    fn tagged_all<T: FromStr>(&mut self, tag: &str) -> Result<Vec<T>>
    where
        T::Err: std::fmt::Display,
    {
        (self.tagged(tag)?.split_whitespace())
            .map(|t| t.parse().map_err(|e| bad(format!("{tag}: {e}"))))
            .collect()
    }

    fn tagged_u64s(&mut self, tag: &str, count: usize) -> Result<Vec<u64>> {
        let vals: Vec<u64> = self.tagged_all(tag)?;
        if vals.len() != count {
            return Err(bad(format!(
                "{tag}: expected {count} counters, got {}",
                vals.len()
            )));
        }
        Ok(vals)
    }

    fn tagged_f64(&mut self, tag: &str) -> Result<f64> {
        parse_f64(self.tagged(tag)?)
    }

    fn tagged_f64s(&mut self, tag: &str) -> Result<Vec<f64>> {
        parse_f64s(self.tagged(tag)?)
    }

    /// Reads one agent's `est`, `fit`, `r2` and `factor` lines into the
    /// state of an estimator over `num_resources` resources.
    fn estimator(&mut self, num_resources: usize) -> Result<EstimatorState> {
        let counters = self.tagged_u64s("est", 4)?;
        let count = |i: usize| {
            usize::try_from(counters[i]).map_err(|_| bad(format!("est: {} overflows", counters[i])))
        };
        let fit = self.tagged_f64s("fit")?;
        let (scale, elasticities) = fit
            .split_first()
            .ok_or_else(|| bad("fit needs a scale".to_string()))?;
        let utility = CobbDouglas::new(*scale, elasticities.to_vec())
            .map_err(|e| bad(format!("fit: {e}")))?;
        let r_squared = match self.tagged("r2")? {
            "none" => None,
            r2 => Some(parse_f64(r2.strip_prefix("some ").ok_or_else(|| {
                bad(format!("r2 must be none|some <bits>, got {r2:?}"))
            })?)?),
        };
        let line = self.tagged("factor")?;
        let mut toks = line.split_whitespace();
        let rows = next_token(&mut toks, "factor", line)?;
        let mut vals = toks.map(parse_f64);
        let mut sum = || {
            vals.next()
                .unwrap_or_else(|| Err(bad("factor needs its sums".into())))
        };
        let sums = (sum()?, sum()?);
        let triangle = vals.collect::<Result<Vec<_>>>()?;
        let factor = UpdatableLstsq::from_parts(num_resources + 1, &triangle, rows, sums)
            .map_err(|e| bad(format!("factor: {e}")))?;
        let state = EstimatorState {
            factor,
            utility,
            r_squared,
            refits: count(0)?,
            incremental_refits: count(1)?,
            degenerate_refits: count(2)?,
            consecutive_degenerate: count(3)?,
        };
        state.check(num_resources).map_err(|e| bad(e.to_string()))?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use std::iter;

    use super::*;
    use crate::engine::MarketEngine;
    use crate::events::MarketEvent;

    fn busy_market() -> MarketEngine {
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap()),
        });
        market.submit(MarketEvent::AgentJoined {
            id: 2,
            source: ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap()),
        });
        market.submit(MarketEvent::AgentJoined {
            id: 3,
            source: ObservationSource::External,
        });
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 13));
        market.pump().unwrap();
        market
    }

    fn warm_gp_market() -> MarketEngine {
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap())
            .with_mechanism(crate::engine::MechanismKind::MaxWelfare { fairness: true });
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap()),
        });
        market.submit(MarketEvent::AgentJoined {
            id: 2,
            source: ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap()),
        });
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 10));
        market.pump().unwrap();
        market
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let snap = busy_market().snapshot();
        let decoded = MarketSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn warm_start_cache_round_trips_bit_exactly() {
        let market = warm_gp_market();
        assert!(!market.warm_cache().is_empty());
        let snap = market.snapshot();
        assert!(!snap.warm.is_empty());
        let decoded = MarketSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.warm, snap.warm);
    }

    #[test]
    fn restored_gp_market_stays_warm_and_allocates_bit_identically() {
        let mut original = warm_gp_market();
        let text = original.snapshot().encode();
        let mut restored = MarketEngine::restore(&MarketSnapshot::decode(&text).unwrap()).unwrap();
        assert_eq!(restored.warm_cache(), original.warm_cache());
        // Continued epochs seed the GP solver from the restored cache on
        // both sides, so allocations — and the hit/miss counters — must
        // track bit for bit.
        for _ in 0..4 {
            original.submit(MarketEvent::EpochTick);
            restored.submit(MarketEvent::EpochTick);
            let a = original.pump().unwrap().pop().unwrap();
            let b = restored.pump().unwrap().pop().unwrap();
            assert_eq!(a.realloc, b.realloc);
            if let (Some(x), Some(y)) = (a.allocation, b.allocation) {
                for (bx, by) in x.bundles().iter().zip(y.bundles()) {
                    for r in 0..bx.num_resources() {
                        assert_eq!(bx.get(r).to_bits(), by.get(r).to_bits());
                    }
                }
            }
        }
        assert_eq!(original.metrics(), restored.metrics());
        assert!(restored.metrics().warm_start_hits > 0);
    }

    #[test]
    fn restored_market_allocates_bit_identically() {
        let mut original = busy_market();
        let text = original.snapshot().encode();
        let mut restored = MarketEngine::restore(&MarketSnapshot::decode(&text).unwrap()).unwrap();
        assert_eq!(restored.epoch(), original.epoch());
        assert_eq!(restored.metrics(), original.metrics());
        assert_eq!(restored.auditor(), original.auditor());

        // Drive both for several more epochs: every allocation must match
        // bit for bit, including the cache-hit/reallocate decisions.
        for _ in 0..6 {
            original.submit(MarketEvent::EpochTick);
            restored.submit(MarketEvent::EpochTick);
            let a = original.pump().unwrap().pop().unwrap();
            let b = restored.pump().unwrap().pop().unwrap();
            assert_eq!(a.realloc, b.realloc);
            let (x, y) = (a.allocation.unwrap(), b.allocation.unwrap());
            for (bx, by) in x.bundles().iter().zip(y.bundles()) {
                for r in 0..bx.num_resources() {
                    assert_eq!(bx.get(r).to_bits(), by.get(r).to_bits());
                }
            }
        }
    }

    #[test]
    fn restored_credit_market_keeps_its_ledger_and_allocates_bit_identically() {
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap())
            .with_mechanism(crate::engine::MechanismKind::Credit {
                inner: ref_core::mechanism::CreditInner::MaxWelfare,
            })
            .with_warmup_epochs(2);
        let mut original = MarketEngine::new(config).unwrap();
        original.submit(MarketEvent::AgentJoined {
            id: 1,
            source: ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![0.7, 0.3]).unwrap()),
        });
        original.submit(MarketEvent::AgentJoined {
            id: 2,
            source: ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![0.3, 0.7]).unwrap()),
        });
        original.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 12));
        original.pump().unwrap();

        let snap = original.snapshot();
        assert_eq!(snap.ledger.len(), 2);
        assert!(!snap.ledger.entry(1).unwrap().window.is_empty());
        let decoded = MarketSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.ledger, snap.ledger);

        // Continued epochs read the restored balances when tilting the
        // objective, so allocations and the ledger itself must track bit
        // for bit.
        let mut restored = MarketEngine::restore(&decoded).unwrap();
        for _ in 0..4 {
            original.submit(MarketEvent::EpochTick);
            restored.submit(MarketEvent::EpochTick);
            let a = original.pump().unwrap().pop().unwrap();
            let b = restored.pump().unwrap().pop().unwrap();
            assert_eq!(a.realloc, b.realloc);
            assert_eq!(a.temporal_violations, b.temporal_violations);
            let (x, y) = (a.allocation.unwrap(), b.allocation.unwrap());
            for (bx, by) in x.bundles().iter().zip(y.bundles()) {
                for r in 0..bx.num_resources() {
                    assert_eq!(bx.get(r).to_bits(), by.get(r).to_bits());
                }
            }
        }
        assert_eq!(original.ledger(), restored.ledger());
        assert_eq!(original.metrics(), restored.metrics());
    }

    #[test]
    fn streamed_text_arrives_in_bounded_chunks_and_stops_at_the_first_error() {
        // A large population makes a document of several chunks.
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let mut market = MarketEngine::new(config).unwrap();
        for id in 0..640 {
            market.submit(MarketEvent::AgentJoined {
                id,
                source: ObservationSource::External,
            });
            for i in 0..6 {
                let x = 1.0 + f64::from(i % 7);
                market.submit(MarketEvent::ObservationReported {
                    id,
                    allocation: vec![x, 2.0],
                    performance: x.sqrt() + f64::from(i) * 1e-6,
                });
            }
        }
        market.submit(MarketEvent::EpochTick);
        market.pump().unwrap();

        let mut chunks = Vec::new();
        let streamed = market.write_snapshot(&mut |chunk| {
            chunks.push(chunk.to_vec());
            Ok(())
        });
        streamed.unwrap();
        assert!(chunks.len() > 2, "{} chunk(s)", chunks.len());
        assert!(chunks.iter().all(|c| c.len() < CHUNK_BYTES + 64));
        let text = String::from_utf8(chunks.concat()).unwrap();
        assert_eq!(text, market.snapshot().encode());
        assert_eq!(MarketSnapshot::decode(&text).unwrap(), market.snapshot());

        let mut calls = 0;
        let failed = market.write_snapshot(&mut |_| {
            calls += 1;
            Err(io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(calls, 1, "no chunk is handed on after an error");
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        assert!(MarketSnapshot::decode("").is_err());
        assert!(MarketSnapshot::decode("not-a-snapshot v1").is_err());
        assert!(MarketSnapshot::decode("refmarket-snapshot v999").is_err());

        let good = busy_market().snapshot().encode();
        // Truncation is detected.
        let lines: Vec<&str> = good.lines().collect();
        let truncated = lines[..lines.len() / 2].join("\n");
        assert!(MarketSnapshot::decode(&truncated).is_err());
        // Trailing garbage is detected.
        let trailing = format!("{good}\nextra line");
        assert!(MarketSnapshot::decode(&trailing).is_err());
        // A corrupted counter line is detected.
        let corrupt = good.replace("stable-since", "stable-sinister");
        assert!(MarketSnapshot::decode(&corrupt).is_err());

        // Hostile estimator lines fail closed, each with a typed error.
        let refused = |what: &str, doc: String| match MarketSnapshot::decode(&doc) {
            Err(MarketError::Snapshot(_)) => {}
            other => panic!("{what}: {other:?}"),
        };
        let first = |tag: &str| {
            let at = lines.iter().position(|l| l.starts_with(tag)).unwrap();
            (at, lines[at].split(' ').collect::<Vec<_>>())
        };
        let with_line = |at: usize, line: String| {
            let mut doc = lines.clone();
            doc[at] = &line;
            doc.join("\n")
        };
        let (at, factor) = first("factor ");
        let nan = format!("{:016x}", f64::NAN.to_bits());
        let mut entry = factor.clone();
        entry[5] = &nan;
        refused("non-finite factor entry", with_line(at, entry.join(" ")));
        let mut sum = factor.clone();
        sum[2] = &nan;
        refused("non-finite factor sum", with_line(at, sum.join(" ")));
        refused(
            "short triangle",
            with_line(at, factor[..factor.len() - 1].join(" ")),
        );
        refused(
            "long triangle",
            with_line(at, format!("{} {}", factor.join(" "), factor[4])),
        );
        refused(
            "factor without sums",
            with_line(at, "factor 13".to_string()),
        );
        // The first agent has refit ten times on 13 observations, the
        // most two resources allow: the first three cannot be refit on.
        assert_eq!(factor[1], "13");
        let mut rows = factor.clone();
        rows[1] = "14";
        assert!(MarketSnapshot::decode(&with_line(at, rows.join(" "))).is_ok());
        rows[1] = "12";
        refused("m too small for the refits", with_line(at, rows.join(" ")));
        let (at, fit) = first("fit ");
        let negative = format!("{:016x}", (-0.25_f64).to_bits());
        let zero = format!("{:016x}", 0.0_f64.to_bits());
        for (what, tokens) in [
            (
                "negative elasticity",
                vec!["fit", fit[1], &negative, fit[3]],
            ),
            ("all-zero elasticities", vec!["fit", fit[1], &zero, &zero]),
            ("non-positive scale", vec!["fit", &zero, fit[2], fit[3]]),
            (
                "fit over three resources",
                vec!["fit", fit[1], fit[2], fit[3], fit[3]],
            ),
            ("fit without a scale", vec!["fit"]),
        ] {
            refused(what, with_line(at, tokens.join(" ")));
        }
        let (at, est) = first("est ");
        refused("truncated est line", with_line(at, est[..4].join(" ")));
        refused(
            "est line with a word",
            with_line(at, format!("{} x", est.join(" "))),
        );
        let (at, r2) = first("r2 ");
        refused("r2 without bits", with_line(at, "r2 some".to_string()));
        refused(
            "r2 of another kind",
            with_line(at, format!("r2 maybe {}", r2[2])),
        );
        refused("r2 none after refits", with_line(at, "r2 none".to_string()));
        // A document cut inside an agent's estimator.
        let cut = lines.iter().rposition(|l| l.starts_with("r2 ")).unwrap();
        refused("cut estimator", lines[..cut].join("\n"));
    }

    /// The busy market's document with its ledger section replaced by
    /// `entries`, each the tokens of an `l` line after its tag.
    fn with_ledger(entries: &[String]) -> String {
        let good = busy_market().snapshot().encode();
        let lines: Vec<&str> = good.lines().collect();
        let start = lines.iter().position(|l| l.starts_with("ledger ")).unwrap();
        let end = lines.iter().position(|l| l.starts_with("agents ")).unwrap();
        let ledger = iter::once(format!("ledger {}", entries.len()))
            .chain(entries.iter().map(|e| format!("l {e}")));
        let doc: Vec<String> = lines[..start]
            .iter()
            .map(|l| l.to_string())
            .chain(ledger)
            .chain(lines[end..].iter().map(|l| l.to_string()))
            .collect();
        doc.join("\n")
    }

    /// An `l` line's tokens: `id`, `balance` and `window` pairs.
    fn entry(id: AgentId, balance: f64, window: usize) -> String {
        let pair = format!(" {:016x} {:016x}", 0.5_f64.to_bits(), 1.0_f64.to_bits());
        format!(
            "{id} {:016x} {window}{}",
            balance.to_bits(),
            pair.repeat(window)
        )
    }

    fn refused(what: &str, doc: &str) -> String {
        match MarketSnapshot::decode(doc) {
            Err(MarketError::Snapshot(msg)) => msg,
            other => panic!("{what}: {other:?}"),
        }
    }

    #[test]
    fn ledger_entries_rebuild_the_engines_ledger() {
        let snap = busy_market().snapshot();
        let entries: Vec<String> = (1..=3).map(|id| entry(id, 0.25, 16)).collect();
        let decoded = MarketSnapshot::decode(&with_ledger(&entries)).unwrap();
        assert_eq!(decoded.ledger.len(), 3);
        assert_eq!(decoded.ledger.entry(2).unwrap().window.len(), 16);
        let restored = MarketEngine::restore(&decoded).unwrap();
        assert_eq!(restored.ledger(), &decoded.ledger);
        assert_eq!(
            MarketSnapshot::decode(&snap.encode()).unwrap().ledger,
            snap.ledger
        );
    }

    #[test]
    fn decode_refuses_an_overflowing_window_length() {
        let huge = format!("1 {:016x} 9223372036854775808", 0.0_f64.to_bits());
        let msg = refused(
            "2^63 window pairs",
            &with_ledger(std::slice::from_ref(&huge)),
        );
        assert!(msg.contains("agent 1"), "{msg}");
        // With a temporal window as large, the pair count still refuses
        // it, with no doubling to overflow.
        let doc = with_ledger(&[huge]).replace(
            "temporal-window 16",
            &format!("temporal-window {}", u64::MAX),
        );
        let msg = refused("2^63 window pairs under a 2^64 window", &doc);
        assert!(msg.contains("window pairs"), "{msg}");
        let odd = format!("{} {:016x}", entry(1, 0.0, 1), 0.5_f64.to_bits());
        refused("an odd value count", &with_ledger(&[odd]));
    }

    #[test]
    fn decode_refuses_repeated_or_unordered_ledger_ids() {
        let repeated = [entry(1, 0.25, 2), entry(1, -0.25, 2)];
        let msg = refused("a repeated id", &with_ledger(&repeated));
        assert!(msg.contains("strictly ascending"), "{msg}");
        let repeated_nan = [entry(1, 0.25, 2), entry(1, f64::NAN, 2)];
        refused(
            "a repeated id with a NaN balance",
            &with_ledger(&repeated_nan),
        );
        let unordered = [entry(2, 0.0, 0), entry(1, 0.0, 0)];
        refused("descending ids", &with_ledger(&unordered));
    }

    #[test]
    fn decode_refuses_a_non_finite_ledger_balance() {
        for balance in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let msg = refused(
                "a non-finite balance",
                &with_ledger(&[entry(2, balance, 1)]),
            );
            assert!(msg.contains("not finite"), "{msg}");
        }
    }

    #[test]
    fn decode_refuses_a_window_longer_than_the_temporal_window() {
        let msg = refused("17 pairs under 16", &with_ledger(&[entry(1, 0.0, 17)]));
        assert!(msg.contains("exceeds the temporal window of 16"), "{msg}");
        assert!(MarketSnapshot::decode(&with_ledger(&[entry(1, 0.0, 16)])).is_ok());
    }

    #[test]
    fn restore_refuses_a_ledger_entry_without_an_agent() {
        // Agent 7 is not in the market; its full window would otherwise
        // be audited every epoch, and its entry would never settle.
        let entries = [entry(1, 0.0, 16), entry(7, 0.0, 16)];
        let decoded = MarketSnapshot::decode(&with_ledger(&entries)).unwrap();
        match MarketEngine::restore(&decoded) {
            Err(MarketError::Snapshot(msg)) => assert!(msg.contains("agent 7"), "{msg}"),
            other => panic!("a ghost entry restored: {:?}", other.map(|m| m.epoch())),
        }
        // A hand-built snapshot is held to the same rule.
        let mut snap = busy_market().snapshot();
        snap.ledger.admit(99);
        assert!(matches!(
            MarketEngine::restore(&snap),
            Err(MarketError::Snapshot(_))
        ));
    }

    #[test]
    fn restore_rejects_hostile_estimator_states() {
        let snap = busy_market().snapshot();
        let good = &snap.agents[0].estimator;
        assert!(good.refits > 0);
        let triangle: Vec<f64> = good.factor.triangle().collect();
        let hostile = [
            EstimatorState {
                factor: UpdatableLstsq::from_parts(3, &triangle, 2, good.factor.sums()).unwrap(),
                ..good.clone()
            },
            EstimatorState {
                consecutive_degenerate: good.degenerate_refits + 1,
                ..good.clone()
            },
            EstimatorState {
                r_squared: None,
                ..good.clone()
            },
            EstimatorState {
                utility: CobbDouglas::new(1.0, vec![1.0]).unwrap(),
                ..good.clone()
            },
            EstimatorState {
                factor: UpdatableLstsq::new(2),
                ..good.clone()
            },
        ];
        for (i, estimator) in hostile.into_iter().enumerate() {
            let mut bad = snap.clone();
            bad.agents[0].estimator = estimator;
            match MarketEngine::restore(&bad) {
                Err(MarketError::Snapshot(msg)) => assert!(msg.contains("agent 1"), "{msg}"),
                other => panic!("case {i} restored: {:?}", other.map(|m| m.epoch())),
            }
        }
        assert!(MarketEngine::restore(&snap).is_ok());
    }

    #[test]
    fn restore_rejects_unsupported_versions_and_duplicate_agents() {
        let mut snap = busy_market().snapshot();
        snap.version = SNAPSHOT_VERSION - 1;
        assert!(matches!(
            MarketEngine::restore(&snap),
            Err(MarketError::Snapshot(_))
        ));
        snap.version = SNAPSHOT_VERSION;
        let dup = snap.agents[0].clone();
        snap.agents.push(dup);
        assert!(matches!(
            MarketEngine::restore(&snap),
            Err(MarketError::DuplicateAgent(1))
        ));
    }

    #[test]
    fn v2_documents_get_the_unsupported_version_error() {
        // v3 documents too: there is no reader for observation logs.
        let text = busy_market().snapshot().encode();
        for old in [2, 3] {
            let doc = text.replacen(
                "refmarket-snapshot v4",
                &format!("refmarket-snapshot v{old}"),
                1,
            );
            match MarketSnapshot::decode(&doc) {
                Err(MarketError::Snapshot(msg)) => {
                    assert!(msg.contains(&format!("unsupported version {old}")), "{msg}");
                }
                other => panic!("a v{old} document decoded: {other:?}"),
            }
        }
    }
}

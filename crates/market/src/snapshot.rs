//! Versioned snapshot/restore of full market state.
//!
//! A [`MarketSnapshot`] captures everything a restarted service needs to
//! resume a market mid-run: configuration, epoch counters, each agent's
//! observation log (estimators are rebuilt by deterministic replay), the
//! allocation cache, and the audit/metric counters.
//!
//! The wire format is a line-oriented text document. Every `f64` is
//! stored as the hexadecimal form of its IEEE-754 bits, so encode →
//! decode → restore reproduces the original state *bit for bit* — the
//! restored market's next epoch allocates identically to the original's.
//! Lines are self-describing (`capacity …`, `agent …`, `o …`), parsed
//! strictly in order, and the leading `refmarket-snapshot v3` magic
//! rejects foreign, older and future documents up front with a typed
//! `unsupported version` error.

use std::collections::VecDeque;
use std::fmt::Write as _;

use ref_core::fitting::FitPoint;
use ref_core::online::OnlineEstimator;
use ref_core::resource::{Allocation, Bundle, Capacity};
use ref_core::utility::CobbDouglas;

use crate::agent::{AgentId, ObservationSource};
use crate::audit::Auditor;
use crate::digest::{self, AgentDigest, Sections};
use crate::engine::{Fingerprint, MarketConfig, MechanismKind};
use crate::error::{MarketError, Result};
use crate::ledger::{CreditLedger, LedgerEntry};
use crate::metrics::MarketMetrics;
use crate::warm::WarmStartCache;

/// The snapshot format version this build reads and writes.
///
/// v2 added the allocation mechanism to the config section, the
/// warm-start cache section, and the warm-start/incremental-refit
/// counters to the metrics line. v3 added the temporal-SI audit config,
/// the credit ledger section, the fingerprint tilt line, and the
/// temporal/credit counters on the auditor and metrics lines.
pub const SNAPSHOT_VERSION: u32 = 3;

const MAGIC: &str = "refmarket-snapshot";

/// One agent's persisted state: identity, source, observation log.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSnapshot {
    /// The agent's stable id.
    pub id: AgentId,
    /// Epoch the agent was admitted.
    pub joined_epoch: u64,
    /// How the agent's observations are produced.
    pub source: ObservationSource,
    /// The estimator's observation log, in arrival order; replaying it
    /// reconstructs the estimator exactly.
    pub observations: Vec<FitPoint>,
}

/// Full market state at a point in time.
///
/// Produced by [`MarketEngine::snapshot`](crate::engine::MarketEngine::snapshot),
/// consumed by [`MarketEngine::restore`](crate::engine::MarketEngine::restore);
/// [`encode`](MarketSnapshot::encode) / [`decode`](MarketSnapshot::decode)
/// convert to and from the text wire format.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
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

fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn push_hexes(line: &mut String, values: &[f64]) {
    for v in values {
        let _ = write!(line, " {}", hex(*v));
    }
}

impl MarketSnapshot {
    /// Serializes the snapshot to the text wire format.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC} v{}", self.version);

        let c = &self.config;
        let mut line = "capacity".to_string();
        push_hexes(&mut line, c.capacity.as_slice());
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "tolerance {}", hex(c.realloc_tolerance));
        let _ = writeln!(out, "audit-tolerance {}", hex(c.audit_tolerance));
        let _ = writeln!(out, "warmup {}", c.warmup_epochs);
        let _ = writeln!(out, "excitation {}", hex(c.excitation));
        let _ = writeln!(out, "quanta {}", c.enforcement_quanta);
        let _ = writeln!(out, "sim-instructions {}", c.sim_instructions);
        let _ = writeln!(out, "seed {}", c.seed);
        let _ = writeln!(out, "mechanism {}", c.mechanism.label());
        let _ = writeln!(out, "temporal-window {}", c.temporal_window);
        let _ = writeln!(out, "temporal-slack {}", hex(c.temporal_slack));

        let _ = writeln!(out, "epoch {}", self.epoch);
        let _ = writeln!(out, "stable-since {}", self.stable_since);
        let a = &self.auditor;
        let _ = writeln!(
            out,
            "auditor {} {} {} {} {} {} {} {} {}",
            a.epochs_audited,
            a.si_violation_epochs,
            a.ef_violation_epochs,
            a.pe_violation_epochs,
            a.si_after_warmup,
            a.ef_after_warmup,
            a.pe_after_warmup,
            a.temporal_si_violation_epochs,
            a.temporal_si_after_warmup
        );
        let m = &self.metrics;
        let _ = writeln!(
            out,
            "metrics {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
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
            m.temporal_si_violations
        );

        match &self.cache {
            None => {
                let _ = writeln!(out, "cache none");
            }
            Some((fp, alloc)) => {
                let _ = writeln!(out, "cache present");
                let mut line = "fp-ids".to_string();
                for id in &fp.ids {
                    let _ = write!(line, " {id}");
                }
                let _ = writeln!(out, "{line}");
                let mut line = "fp-quant".to_string();
                for q in &fp.quantized {
                    let _ = write!(line, " {q}");
                }
                let _ = writeln!(out, "{line}");
                let mut line = "fp-capacity".to_string();
                for b in &fp.capacity_bits {
                    let _ = write!(line, " {b:016x}");
                }
                let _ = writeln!(out, "{line}");
                let mut line = "fp-tilt".to_string();
                for t in &fp.tilt {
                    let _ = write!(line, " {t}");
                }
                let _ = writeln!(out, "{line}");
                let _ = writeln!(out, "bundles {}", alloc.num_agents());
                for b in alloc.bundles() {
                    let mut line = "bundle".to_string();
                    push_hexes(&mut line, b.as_slice());
                    let _ = writeln!(out, "{line}");
                }
            }
        }

        let (warm_bundles, warm_aux, warm_t) = self.warm.parts();
        let _ = writeln!(out, "warm {}", warm_bundles.len());
        if !warm_bundles.is_empty() {
            for (id, bundle) in &warm_bundles {
                let mut line = format!("w {id}");
                push_hexes(&mut line, bundle);
                let _ = writeln!(out, "{line}");
            }
            let mut line = "warm-aux".to_string();
            push_hexes(&mut line, warm_aux);
            let _ = writeln!(out, "{line}");
            let _ = writeln!(out, "warm-t {}", hex(warm_t));
        }

        let entries = self.ledger.parts();
        let _ = writeln!(out, "ledger {}", entries.len());
        for (id, entry) in entries {
            let mut line = format!("l {id} {} {}", hex(entry.balance), entry.window.len());
            for (delivered, entitled) in &entry.window {
                let _ = write!(line, " {} {}", hex(*delivered), hex(*entitled));
            }
            let _ = writeln!(out, "{line}");
        }

        let _ = writeln!(out, "agents {}", self.agents.len());
        for agent in &self.agents {
            let _ = writeln!(out, "agent {} {}", agent.id, agent.joined_epoch);
            match &agent.source {
                ObservationSource::GroundTruth(u) => {
                    let mut line = format!("source truth {}", hex(u.scale()));
                    push_hexes(&mut line, u.elasticities());
                    let _ = writeln!(out, "{line}");
                }
                ObservationSource::Simulated { benchmark } => {
                    let _ = writeln!(out, "source sim {benchmark}");
                }
                ObservationSource::External => {
                    let _ = writeln!(out, "source external");
                }
            }
            let _ = writeln!(out, "obs {}", agent.observations.len());
            for p in &agent.observations {
                let mut line = format!("o {}", hex(p.output));
                push_hexes(&mut line, &p.inputs);
                let _ = writeln!(out, "{line}");
            }
        }
        let _ = writeln!(out, "end");
        out
    }

    /// A 64-bit digest of everything [`MarketSnapshot::encode`] writes,
    /// computed from the fields themselves (no text is produced).
    ///
    /// Two engines whose histories diverged — even by one bit of one
    /// `f64` — produce different fingerprints with overwhelming
    /// probability, while bit-identical replicas always agree. Equal to
    /// [`MarketEngine::state_fingerprint`](crate::engine::MarketEngine::state_fingerprint)
    /// of the engine the snapshot was taken from (and of one restored
    /// from it), which gets there without re-reading any observation
    /// log; this one digests every log from scratch.
    pub fn fingerprint(&self) -> u64 {
        digest::fingerprint(
            &Sections {
                version: self.version,
                config: &self.config,
                epoch: self.epoch,
                stable_since: self.stable_since,
                auditor: &self.auditor,
                metrics: &self.metrics,
                cache: self.cache.as_ref(),
                warm: &self.warm,
                ledger: &self.ledger,
            },
            self.agents.iter().map(|a| AgentDigest {
                id: a.id,
                joined_epoch: a.joined_epoch,
                source: &a.source,
                observations: a.observations.len(),
                log_digest: OnlineEstimator::digest_of(&a.observations),
            }),
        )
        .finish()
    }

    /// Parses a snapshot from the text wire format.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::Snapshot`] on bad magic, an unsupported
    /// version, or any malformed, missing or trailing line.
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
                let ids = lines
                    .tagged("fp-ids")?
                    .split_whitespace()
                    .map(|t| {
                        t.parse::<AgentId>()
                            .map_err(|e| bad(format!("fp-ids: {e}")))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let quantized = lines
                    .tagged("fp-quant")?
                    .split_whitespace()
                    .map(|t| t.parse::<i64>().map_err(|e| bad(format!("fp-quant: {e}"))))
                    .collect::<Result<Vec<_>>>()?;
                let capacity_bits = lines
                    .tagged("fp-capacity")?
                    .split_whitespace()
                    .map(|t| {
                        u64::from_str_radix(t, 16).map_err(|e| bad(format!("fp-capacity: {e}")))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let tilt = lines
                    .tagged("fp-tilt")?
                    .split_whitespace()
                    .map(|t| t.parse::<i64>().map_err(|e| bad(format!("fp-tilt: {e}"))))
                    .collect::<Result<Vec<_>>>()?;
                let n = lines.tagged_u64("bundles")? as usize;
                let mut bundles = Vec::with_capacity(n);
                for _ in 0..n {
                    let b = Bundle::new(lines.tagged_f64s("bundle")?)
                        .map_err(|e| bad(e.to_string()))?;
                    bundles.push(b);
                }
                let alloc = Allocation::new(bundles, &capacity).map_err(|e| bad(e.to_string()))?;
                Some((
                    Fingerprint {
                        ids,
                        quantized,
                        capacity_bits,
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
            let mut bundles = Vec::with_capacity(num_warm);
            for _ in 0..num_warm {
                let line = lines.tagged("w")?;
                let mut toks = line.split_whitespace();
                let id = toks
                    .next()
                    .and_then(|t| t.parse::<AgentId>().ok())
                    .ok_or_else(|| bad(format!("warm entry {line:?}")))?;
                let values = toks.map(parse_f64).collect::<Result<Vec<_>>>()?;
                bundles.push((id, values));
            }
            let aux = parse_f64s(lines.tagged("warm-aux")?)?;
            let barrier_t = lines.tagged_f64("warm-t")?;
            WarmStartCache::from_parts(bundles, aux, barrier_t)
        };

        let num_entries = lines.tagged_u64("ledger")? as usize;
        let mut entries = Vec::with_capacity(num_entries);
        for _ in 0..num_entries {
            let line = lines.tagged("l")?;
            let mut toks = line.split_whitespace();
            let id = toks
                .next()
                .and_then(|t| t.parse::<AgentId>().ok())
                .ok_or_else(|| bad(format!("ledger entry {line:?}")))?;
            let balance = toks
                .next()
                .map(parse_f64)
                .transpose()?
                .ok_or_else(|| bad(format!("ledger entry {line:?}")))?;
            let window_len = toks
                .next()
                .and_then(|t| t.parse::<usize>().ok())
                .ok_or_else(|| bad(format!("ledger entry {line:?}")))?;
            let pairs = toks.map(parse_f64).collect::<Result<Vec<_>>>()?;
            if pairs.len() != 2 * window_len {
                return Err(bad(format!(
                    "ledger entry for agent {id}: expected {window_len} \
                     window pairs, got {} values",
                    pairs.len()
                )));
            }
            let window: VecDeque<(f64, f64)> =
                pairs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
            entries.push((id, LedgerEntry { balance, window }));
        }
        let ledger = CreditLedger::from_parts(entries);

        let num_agents = lines.tagged_u64("agents")? as usize;
        let mut agents = Vec::with_capacity(num_agents);
        for _ in 0..num_agents {
            let head = lines.tagged("agent")?;
            let mut toks = head.split_whitespace();
            let id = toks
                .next()
                .and_then(|t| t.parse::<AgentId>().ok())
                .ok_or_else(|| bad(format!("agent header {head:?}")))?;
            let joined_epoch = toks
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| bad(format!("agent header {head:?}")))?;
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
            let num_obs = lines.tagged_u64("obs")? as usize;
            let mut observations = Vec::with_capacity(num_obs);
            for _ in 0..num_obs {
                let vals = parse_f64s(lines.tagged("o")?)?;
                let (output, inputs) = vals
                    .split_first()
                    .ok_or_else(|| bad("observation needs an output".to_string()))?;
                observations
                    .push(FitPoint::new(inputs.to_vec(), *output).map_err(|e| bad(e.to_string()))?);
            }
            agents.push(AgentSnapshot {
                id,
                joined_epoch,
                source,
                observations,
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

    fn tagged_u64s(&mut self, tag: &str, count: usize) -> Result<Vec<u64>> {
        let vals = self
            .tagged(tag)?
            .split_whitespace()
            .map(|t| t.parse::<u64>().map_err(|e| bad(format!("{tag}: {e}"))))
            .collect::<Result<Vec<_>>>()?;
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
}

#[cfg(test)]
mod tests {
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
    }

    #[test]
    fn restore_rejects_unsupported_versions_and_duplicate_agents() {
        let mut snap = busy_market().snapshot();
        snap.version = 4;
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
        let text = busy_market().snapshot().encode();
        let v2 = text.replacen("refmarket-snapshot v3", "refmarket-snapshot v2", 1);
        match MarketSnapshot::decode(&v2) {
            Err(MarketError::Snapshot(msg)) => {
                assert!(msg.contains("unsupported version 2"), "{msg}");
            }
            other => panic!("a v2 document decoded: {other:?}"),
        }
    }
}

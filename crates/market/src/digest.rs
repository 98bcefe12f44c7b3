//! The market's state fingerprint: one 64-bit digest of everything a
//! [`MarketSnapshot`](crate::snapshot::MarketSnapshot) serializes,
//! computed from binary fields in `O(live agents × resources)`.
//!
//! [`fingerprint`] is the only definition. The engine feeds it its own
//! borrowed state and each estimator's *running* log digest
//! ([`OnlineEstimator::log_digest`](ref_core::online::OnlineEstimator::log_digest));
//! a snapshot feeds it its own fields and re-digests every log from
//! scratch — the independent oracle for the incremental path. What is
//! fed, in order: snapshot version; config; epoch; `stable_since`; the
//! auditor's and the metrics' counters; the allocation cache; the
//! warm-start cache; the ledger; then per agent `(id, joined epoch,
//! source, observation count, log digest)`. Every variable-length
//! section is preceded by its length, so two different states never feed
//! the same word sequence. It covers exactly what the text format
//! covers — a field the encoder skips (`warm_start_fallbacks`, the aux
//! variables of an emptied warm cache) is skipped here too, so a state
//! and its decoded snapshot fingerprint alike.
//!
//! The value is compared only between a primary and a standby of one
//! build and is never persisted; it may change whenever this file does.

use ref_core::digest;
use ref_core::resource::Allocation;

use crate::agent::{AgentId, ObservationSource};
use crate::audit::Auditor;
use crate::engine::{Fingerprint, MarketConfig};
use crate::ledger::CreditLedger;
use crate::metrics::MarketMetrics;
use crate::warm::WarmStartCache;

/// An order-sensitive 64-bit hasher over words ([`digest::mix`]).
#[derive(Debug)]
pub(crate) struct StateHasher {
    state: u64,
    /// Words fed so far: the hasher's unit of work, which a test reads
    /// to show the fingerprint does not walk observation logs.
    #[cfg(test)]
    words: u64,
}

impl StateHasher {
    fn new() -> StateHasher {
        StateHasher {
            state: digest::SEED,
            #[cfg(test)]
            words: 0,
        }
    }

    fn u64(&mut self, word: u64) {
        self.state = digest::mix(self.state, word);
        #[cfg(test)]
        {
            self.words += 1;
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// A variable-length run: its length, then its words.
    fn seq(&mut self, words: impl ExactSizeIterator<Item = u64>) {
        self.u64(words.len() as u64);
        for word in words {
            self.u64(word);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.seq(xs.iter().map(|x| x.to_bits()));
    }

    fn str(&mut self, s: &str) {
        self.seq(s.bytes().map(u64::from));
    }

    #[cfg(test)]
    pub(crate) fn words(&self) -> u64 {
        self.words
    }

    pub(crate) fn finish(&self) -> u64 {
        self.state
    }
}

/// Everything but the agents: the sections an engine and its snapshot
/// hold in the same types.
pub(crate) struct Sections<'a> {
    pub version: u32,
    pub config: &'a MarketConfig,
    pub epoch: u64,
    pub stable_since: u64,
    pub auditor: &'a Auditor,
    pub metrics: &'a MarketMetrics,
    pub cache: Option<&'a (Fingerprint, Allocation)>,
    pub warm: &'a WarmStartCache,
    pub ledger: &'a CreditLedger,
}

/// One agent as the fingerprint sees it: its observation log enters as
/// a count and a digest, never row by row.
pub(crate) struct AgentDigest<'a> {
    pub id: AgentId,
    pub joined_epoch: u64,
    pub source: &'a ObservationSource,
    pub observations: usize,
    pub log_digest: u64,
}

/// Feeds a market's state (see the module docs for the order) and
/// returns the hasher; [`StateHasher::finish`] is the fingerprint.
pub(crate) fn fingerprint<'a>(
    sections: &Sections<'a>,
    agents: impl ExactSizeIterator<Item = AgentDigest<'a>>,
) -> StateHasher {
    let mut h = StateHasher::new();
    h.u64(u64::from(sections.version));

    let c = sections.config;
    h.f64s(c.capacity.as_slice());
    h.f64(c.realloc_tolerance);
    h.f64(c.audit_tolerance);
    h.u64(c.warmup_epochs);
    h.f64(c.excitation);
    h.u64(c.enforcement_quanta);
    h.u64(c.sim_instructions);
    h.u64(c.seed);
    h.str(c.mechanism.label());
    h.u64(c.temporal_window);
    h.f64(c.temporal_slack);

    h.u64(sections.epoch);
    h.u64(sections.stable_since);

    let a = sections.auditor;
    h.u64(a.epochs_audited);
    h.u64(a.si_violation_epochs);
    h.u64(a.ef_violation_epochs);
    h.u64(a.pe_violation_epochs);
    h.u64(a.si_after_warmup);
    h.u64(a.ef_after_warmup);
    h.u64(a.pe_after_warmup);
    h.u64(a.temporal_si_violation_epochs);
    h.u64(a.temporal_si_after_warmup);

    // `warm_start_fallbacks` is a process-lifetime solver diagnostic the
    // snapshot does not carry either.
    let m = sections.metrics;
    h.u64(m.epochs);
    h.u64(m.events);
    h.u64(m.joins);
    h.u64(m.leaves);
    h.u64(m.demand_changes);
    h.u64(m.external_observations);
    h.u64(m.reallocations);
    h.u64(m.cache_hits);
    h.u64(m.refits);
    h.u64(m.rejected_events);
    h.u64(m.degenerate_refits);
    h.u64(m.quarantines);
    h.u64(m.reallotments);
    h.u64(m.warm_start_hits);
    h.u64(m.warm_start_misses);
    h.u64(m.incremental_refits);
    h.u64(m.credits_accrued);
    h.u64(m.credits_spent);
    h.u64(m.temporal_si_violations);

    match sections.cache {
        None => h.u64(0),
        Some((fp, alloc)) => {
            h.u64(1);
            h.seq(fp.ids.iter().copied());
            h.seq(fp.quantized.iter().map(|q| *q as u64));
            h.seq(fp.capacity_bits.iter().copied());
            h.seq(fp.tilt.iter().map(|t| *t as u64));
            h.u64(alloc.num_agents() as u64);
            for bundle in alloc.bundles() {
                h.f64s(bundle.as_slice());
            }
        }
    }

    let (warm_bundles, warm_aux, warm_t) = sections.warm.parts();
    h.u64(warm_bundles.len() as u64);
    // As in the text format, an emptied cache carries nothing else.
    if !warm_bundles.is_empty() {
        for (id, bundle) in warm_bundles {
            h.u64(id);
            h.f64s(bundle);
        }
        h.f64s(warm_aux);
        h.f64(warm_t);
    }

    let entries = sections.ledger.parts();
    h.u64(entries.len() as u64);
    for (id, entry) in entries {
        h.u64(id);
        h.f64(entry.balance);
        h.u64(entry.window.len() as u64);
        for (delivered, entitled) in &entry.window {
            h.f64(*delivered);
            h.f64(*entitled);
        }
    }

    h.u64(agents.len() as u64);
    for agent in agents {
        h.u64(agent.id);
        h.u64(agent.joined_epoch);
        match agent.source {
            ObservationSource::GroundTruth(u) => {
                h.u64(0);
                h.f64(u.scale());
                h.f64s(u.elasticities());
            }
            ObservationSource::Simulated { benchmark } => {
                h.u64(1);
                h.str(benchmark);
            }
            ObservationSource::External => h.u64(2),
        }
        h.u64(agent.observations as u64);
        h.u64(agent.log_digest);
    }
    h
}

//! The credit ledger as it stood before its slot-column layout: a
//! `BTreeMap` of entries, each owning a `VecDeque` window. Kept verbatim
//! (renamed, with an entry walk and the snapshot section added) as the
//! reference the columns are checked against, bit for bit, by
//! `tests/ledger_oracle.rs` and the `ledger` bench group.

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::collections::VecDeque;

use ref_market::ledger::{AccrualSummary, CREDIT_CAP, CREDIT_DECAY, CREDIT_TILT};

type AgentId = u64;

/// Floor on entitled utility below which an epoch's gap is treated as
/// zero (an agent entitled to nothing cannot be under-served).
const ENTITLED_FLOOR: f64 = 1e-300;

/// One agent's ledger state.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ReferenceEntry {
    /// The credit balance: positive when cumulatively under-served.
    pub balance: f64,
    /// Sliding `(delivered, entitled)` window, oldest first, at most
    /// `temporal_window` entries.
    pub window: VecDeque<(f64, f64)>,
}

impl ReferenceEntry {
    /// Cumulative `(delivered, entitled)` over the current window.
    pub(crate) fn window_sums(&self) -> (f64, f64) {
        self.window
            .iter()
            .fold((0.0, 0.0), |(d, e), (dd, ee)| (d + dd, e + ee))
    }
}

/// The market's credit ledger: one entry per live agent.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ReferenceLedger {
    entries: BTreeMap<AgentId, ReferenceEntry>,
}

impl ReferenceLedger {
    /// Creates an empty ledger.
    pub(crate) fn new() -> ReferenceLedger {
        ReferenceLedger::default()
    }

    /// Number of entries (one per live agent).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ledger holds no entries.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// One agent's entry, if present.
    pub(crate) fn entry(&self, id: AgentId) -> Option<&ReferenceEntry> {
        self.entries.get(&id)
    }

    /// An agent's balance (0 for unknown agents).
    pub(crate) fn balance(&self, id: AgentId) -> f64 {
        self.entries.get(&id).map_or(0.0, |e| e.balance)
    }

    /// Opens a zeroed entry for a newly admitted agent (idempotent — a
    /// snapshot restore re-admits agents the ledger already holds).
    pub(crate) fn admit(&mut self, id: AgentId) {
        self.entries.entry(id).or_default();
    }

    /// Settles a departing agent: the entry is removed and its balance is
    /// redistributed equally across the remaining entries, so the ledger
    /// sum is unchanged by churn. A missing id is a no-op.
    pub(crate) fn settle(&mut self, id: AgentId) {
        let Some(entry) = self.entries.remove(&id) else {
            return;
        };
        let n = self.entries.len();
        if n == 0 || entry.balance == 0.0 {
            return;
        }
        let share = entry.balance / n as f64;
        for e in self.entries.values_mut() {
            e.balance += share;
        }
    }

    /// Re-baselines an agent in place: its balance is redistributed to
    /// the *other* entries and its window is cleared, exactly as if it
    /// had left and immediately rejoined. Applied on demand changes
    /// (including the quarantine lift they perform) and on quarantine
    /// transitions, so accrual from a stale estimation regime never buys
    /// future weight.
    pub(crate) fn rebaseline(&mut self, id: AgentId) {
        if !self.entries.contains_key(&id) {
            return;
        }
        self.settle(id);
        self.admit(id);
    }

    /// Folds one epoch's `(agent, delivered, entitled)` measurements into
    /// the ledger: gaps are normalized, mean-centered, decayed and
    /// capped, and each agent's sliding window advances (bounded by
    /// `window`). Agents missing an entry are admitted on the fly.
    pub(crate) fn accrue(
        &mut self,
        measured: &[(AgentId, f64, f64)],
        window: usize,
    ) -> AccrualSummary {
        if measured.is_empty() {
            return AccrualSummary::default();
        }
        let gaps: Vec<f64> = measured
            .iter()
            .map(|&(_, delivered, entitled)| {
                if entitled <= ENTITLED_FLOOR || !entitled.is_finite() || !delivered.is_finite() {
                    0.0
                } else {
                    ((entitled - delivered) / entitled).clamp(-1.0, 1.0)
                }
            })
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let mut summary = AccrualSummary::default();
        // Clamping an outlier balance would silently destroy the zero-sum
        // invariant, so the clamp residual is collected and redistributed
        // equally: the cap is a *soft* bound that settlement spikes can
        // briefly overshoot (by residual / n), with decay pulling every
        // balance back inside. The weight tilt clamps independently, so an
        // overshoot never buys extra weight.
        let mut residual = 0.0;
        for (&(id, delivered, entitled), gap) in measured.iter().zip(&gaps) {
            let centered = gap - mean;
            let entry = self.entries.entry(id).or_default();
            if centered > 0.0 {
                summary.accrued += 1;
            } else if centered < 0.0 && entry.balance > 0.0 {
                summary.spent += 1;
            }
            let tentative = (entry.balance + centered) * (1.0 - CREDIT_DECAY);
            entry.balance = tentative.clamp(-CREDIT_CAP, CREDIT_CAP);
            residual += tentative - entry.balance;
            entry.window.push_back((delivered, entitled));
            while entry.window.len() > window {
                entry.window.pop_front();
            }
        }
        if residual != 0.0 {
            let share = residual / measured.len() as f64;
            for &(id, _, _) in measured {
                if let Some(entry) = self.entries.get_mut(&id) {
                    entry.balance += share;
                }
            }
        }
        summary
    }

    /// The allocation weight an agent's balance buys:
    /// `1 + CREDIT_TILT * clamp(balance / CREDIT_CAP, -1, 1)`. Unknown
    /// agents weigh 1.
    pub(crate) fn weight(&self, id: AgentId) -> f64 {
        1.0 + CREDIT_TILT * (self.balance(id) / CREDIT_CAP).clamp(-1.0, 1.0)
    }

    /// The weights for `ids`, in order.
    pub(crate) fn weights(&self, ids: &[AgentId]) -> Vec<f64> {
        ids.iter().map(|&id| self.weight(id)).collect()
    }

    /// Evaluates the temporal sharing-incentive inequality for every
    /// agent with a *full* `window`-epoch window: a violation is
    /// `sum(delivered) < (1 - slack) * sum(entitled)`. Returns the
    /// violation count and the worst (smallest) delivered/entitled ratio
    /// seen (1.0 when no agent has a full window yet).
    pub(crate) fn temporal_check(&self, window: usize, slack: f64) -> (usize, f64) {
        let mut violations = 0;
        let mut worst: f64 = 1.0;
        for entry in self.entries.values() {
            if window == 0 || entry.window.len() < window {
                continue;
            }
            let (delivered, entitled) = entry.window_sums();
            if entitled <= ENTITLED_FLOOR {
                continue;
            }
            let ratio = delivered / entitled;
            worst = worst.min(ratio);
            if delivered < (1.0 - slack) * entitled {
                violations += 1;
            }
        }
        (violations, worst)
    }

    /// Sum of all balances (≈ 0 up to floating-point error: mean-centering
    /// is exactly zero-sum, settlement and clamp-residual redistribution
    /// preserve the sum, and decay only shrinks whatever residue remains).
    pub(crate) fn total(&self) -> f64 {
        self.entries.values().map(|e| e.balance).sum()
    }

    /// Sum of absolute balances — how much credit is outstanding.
    pub(crate) fn total_abs(&self) -> f64 {
        self.entries.values().map(|e| e.balance.abs()).sum()
    }

    /// Largest absolute balance.
    pub(crate) fn max_abs(&self) -> f64 {
        self.entries
            .values()
            .map(|e| e.balance.abs())
            .fold(0.0, f64::max)
    }

    /// The entries in ascending id order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (AgentId, &ReferenceEntry)> {
        self.entries.iter().map(|(id, e)| (*id, e))
    }

    /// The ledger section of a snapshot document, as the text sink writes
    /// it: a `ledger` count line, then one `l` line per entry.
    pub(crate) fn snapshot_section(&self) -> String {
        let mut text = format!("ledger {}", self.entries.len());
        for (id, entry) in &self.entries {
            text += &format!(
                "\nl {id} {:016x} {}",
                entry.balance.to_bits(),
                entry.window.len()
            );
            for (delivered, entitled) in &entry.window {
                text += &format!(" {:016x} {:016x}", delivered.to_bits(), entitled.to_bits());
            }
        }
        text
    }
}

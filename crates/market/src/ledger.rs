//! The credit ledger: cross-epoch delivered-vs-entitled accounting.
//!
//! Every epoch the engine measures, per agent, the utility *delivered*
//! by the granted bundle and the utility the agent was *entitled* to at
//! the equal split `C/N` — under the agent's ground truth when the
//! market knows it, otherwise under the reported fit. The normalized gap
//! `(entitled - delivered) / entitled` is mean-centered across the live
//! population (one agent's under-service is another's over-service, so
//! accruals are zero-sum by construction) and folded into each agent's
//! *credit balance* with a small decay and a hard cap:
//!
//! ```text
//! balance <- clamp((balance + centered_gap) * (1 - CREDIT_DECAY),
//!                  -CREDIT_CAP, CREDIT_CAP)
//! ```
//!
//! Positive balances mark agents below their cumulative fair share;
//! under [`MechanismKind::Credit`](crate::engine::MechanismKind) they buy
//! extra allocation weight (`1 + CREDIT_TILT * balance / CREDIT_CAP`)
//! until the debt is repaid. Decay forgets ancient history, the cap
//! bounds how much weight any balance can ever buy, and mean-centering
//! keeps the ledger conserved: the sum of balances stays at (numerical)
//! zero, drifting only through cap clamping — the "decay tolerance" the
//! conservation property test allows.
//!
//! The ledger also keeps, per agent, a sliding window of the last
//! [`temporal window`](crate::engine::MarketConfig::temporal_window)
//! epochs' `(delivered, entitled)` pairs — the evidence for the
//! *temporal sharing-incentive* audit: over any full window of `W`
//! epochs, cumulative delivered utility must reach cumulative
//! equal-share utility minus a credit-bounded slack,
//! `sum(delivered) >= (1 - slack) * sum(entitled)`.
//!
//! Lifecycle: entries are created on join, *settled* on leave (the
//! departing balance is redistributed equally across the survivors, so
//! conservation survives churn) and *re-baselined* on demand changes and
//! quarantine transitions — the estimator restarts, so stale accrual
//! from the old regime must not buy weight in the new one.
//!
//! The ledger is deliberately a pure function of the event stream plus
//! the per-epoch allocations: it needs no WAL or replication machinery
//! of its own. Snapshots carry it only so a restored market resumes
//! bit-identically without replaying history.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::agent::AgentId;

/// Per-epoch multiplicative decay applied to every balance after the
/// epoch's accrual; old debts fade instead of compounding forever.
pub const CREDIT_DECAY: f64 = 0.02;

/// Hard bound on any single balance. Together with [`CREDIT_TILT`] this
/// caps the allocation weight an agent can ever carry.
pub const CREDIT_CAP: f64 = 2.0;

/// Maximum relative weight tilt a saturated balance buys: weights lie in
/// `[1 - CREDIT_TILT, 1 + CREDIT_TILT]`.
pub const CREDIT_TILT: f64 = 0.6;

/// Floor on entitled utility below which an epoch's gap is treated as
/// zero (an agent entitled to nothing cannot be under-served).
const ENTITLED_FLOOR: f64 = 1e-300;

/// One agent's ledger state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerEntry {
    /// The credit balance: positive when cumulatively under-served.
    pub balance: f64,
    /// Sliding `(delivered, entitled)` window, oldest first, at most
    /// `temporal_window` entries.
    pub window: VecDeque<(f64, f64)>,
}

impl LedgerEntry {
    /// Cumulative `(delivered, entitled)` over the current window.
    pub fn window_sums(&self) -> (f64, f64) {
        self.window
            .iter()
            .fold((0.0, 0.0), |(d, e), (dd, ee)| (d + dd, e + ee))
    }
}

/// What one epoch's accrual did, for the metrics counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccrualSummary {
    /// Agent-epochs whose centered gap was positive (credit accrued).
    pub accrued: u64,
    /// Agent-epochs where a positive balance absorbed a negative gap
    /// (credit being spent — the mechanism repaying the debt).
    pub spent: u64,
}

/// The market's credit ledger: one entry per live agent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CreditLedger {
    entries: BTreeMap<AgentId, LedgerEntry>,
}

impl CreditLedger {
    /// Creates an empty ledger.
    pub fn new() -> CreditLedger {
        CreditLedger::default()
    }

    /// Number of entries (one per live agent).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ledger holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// One agent's entry, if present.
    pub fn entry(&self, id: AgentId) -> Option<&LedgerEntry> {
        self.entries.get(&id)
    }

    /// An agent's balance (0 for unknown agents).
    pub fn balance(&self, id: AgentId) -> f64 {
        self.entries.get(&id).map_or(0.0, |e| e.balance)
    }

    /// Opens a zeroed entry for a newly admitted agent (idempotent — a
    /// snapshot restore re-admits agents the ledger already holds).
    pub fn admit(&mut self, id: AgentId) {
        self.entries.entry(id).or_default();
    }

    /// Settles a departing agent: the entry is removed and its balance is
    /// redistributed equally across the remaining entries, so the ledger
    /// sum is unchanged by churn. A missing id is a no-op.
    pub fn settle(&mut self, id: AgentId) {
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
    pub fn rebaseline(&mut self, id: AgentId) {
        if !self.entries.contains_key(&id) {
            return;
        }
        self.settle(id);
        self.admit(id);
    }

    /// Drops every window (capacity reallotments change the entitlement
    /// scale mid-window, so the evidence is discarded; balances — which
    /// are normalized ratios — survive).
    pub fn clear_windows(&mut self) {
        for e in self.entries.values_mut() {
            e.window.clear();
        }
    }

    /// Folds one epoch's `(agent, delivered, entitled)` measurements into
    /// the ledger: gaps are normalized, mean-centered, decayed and
    /// capped, and each agent's sliding window advances (bounded by
    /// `window`). Agents missing an entry are admitted on the fly.
    pub fn accrue(&mut self, measured: &[(AgentId, f64, f64)], window: usize) -> AccrualSummary {
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
    pub fn weight(&self, id: AgentId) -> f64 {
        1.0 + CREDIT_TILT * (self.balance(id) / CREDIT_CAP).clamp(-1.0, 1.0)
    }

    /// The weights for `ids`, in order.
    pub fn weights(&self, ids: &[AgentId]) -> Vec<f64> {
        ids.iter().map(|&id| self.weight(id)).collect()
    }

    /// Evaluates the temporal sharing-incentive inequality for every
    /// agent with a *full* `window`-epoch window: a violation is
    /// `sum(delivered) < (1 - slack) * sum(entitled)`. Returns the
    /// violation count and the worst (smallest) delivered/entitled ratio
    /// seen (1.0 when no agent has a full window yet).
    pub fn temporal_check(&self, window: usize, slack: f64) -> (usize, f64) {
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
    pub fn total(&self) -> f64 {
        self.entries.values().map(|e| e.balance).sum()
    }

    /// Sum of absolute balances — how much credit is outstanding.
    pub fn total_abs(&self) -> f64 {
        self.entries.values().map(|e| e.balance.abs()).sum()
    }

    /// Largest absolute balance.
    pub fn max_abs(&self) -> f64 {
        self.entries
            .values()
            .map(|e| e.balance.abs())
            .fold(0.0, f64::max)
    }

    /// The entries in ascending id order, for serialization.
    pub(crate) fn parts(&self) -> Vec<(AgentId, &LedgerEntry)> {
        self.entries.iter().map(|(id, e)| (*id, e)).collect()
    }

    /// Rebuilds a ledger from serialized parts.
    pub(crate) fn from_parts(entries: Vec<(AgentId, LedgerEntry)>) -> CreditLedger {
        CreditLedger {
            entries: entries.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(rows: &[(AgentId, f64, f64)]) -> Vec<(AgentId, f64, f64)> {
        rows.to_vec()
    }

    #[test]
    fn accrual_is_zero_sum_and_under_service_credits() {
        let mut ledger = CreditLedger::new();
        ledger.admit(1);
        ledger.admit(2);
        // Agent 1 delivered half its entitlement; agent 2 is over-served.
        let s = ledger.accrue(&measured(&[(1, 0.5, 1.0), (2, 1.4, 1.0)]), 8);
        assert!(ledger.balance(1) > 0.0);
        assert!(ledger.balance(2) < 0.0);
        assert!(ledger.total().abs() < 1e-12, "{}", ledger.total());
        assert_eq!(s.accrued, 1);
        assert_eq!(s.spent, 0);
        // The flipped epoch spends agent 1's credit.
        let s = ledger.accrue(&measured(&[(1, 1.4, 1.0), (2, 0.5, 1.0)]), 8);
        assert_eq!(s.spent, 1);
    }

    #[test]
    fn weights_respond_to_balances_and_stay_bounded() {
        let mut ledger = CreditLedger::new();
        ledger.admit(1);
        ledger.admit(2);
        assert_eq!(ledger.weight(1), 1.0);
        for _ in 0..200 {
            ledger.accrue(&measured(&[(1, 0.1, 1.0), (2, 1.9, 1.0)]), 8);
        }
        // Saturated balances pin the weights at the tilt bound.
        assert!(ledger.weight(1) > 1.0 + CREDIT_TILT * 0.9);
        assert!(ledger.weight(2) < 1.0 - CREDIT_TILT * 0.9);
        assert!(ledger.weight(1) <= 1.0 + CREDIT_TILT);
        assert!(ledger.weight(2) >= 1.0 - CREDIT_TILT);
        assert_eq!(
            ledger.weights(&[1, 2, 99]),
            vec![ledger.weight(1), ledger.weight(2), 1.0]
        );
    }

    #[test]
    fn settlement_redistributes_and_preserves_the_sum() {
        let mut ledger = CreditLedger::new();
        for id in 1..=3 {
            ledger.admit(id);
        }
        ledger.accrue(&measured(&[(1, 0.2, 1.0), (2, 1.0, 1.0), (3, 1.8, 1.0)]), 8);
        let before = ledger.total();
        let b1 = ledger.balance(1);
        ledger.settle(1);
        assert_eq!(ledger.len(), 2);
        assert!((ledger.total() - before).abs() < 1e-12);
        // The survivors split the departing balance equally.
        assert!((ledger.balance(2) - b1 / 2.0).abs() < 1e-12);
        // Settling an unknown id is a no-op.
        ledger.settle(42);
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn rebaseline_zeroes_the_agent_but_conserves_the_ledger() {
        let mut ledger = CreditLedger::new();
        ledger.admit(1);
        ledger.admit(2);
        ledger.accrue(&measured(&[(1, 0.2, 1.0), (2, 1.8, 1.0)]), 8);
        let total = ledger.total();
        assert!(ledger.balance(1) > 0.0);
        assert!(!ledger.entry(1).unwrap().window.is_empty());
        ledger.rebaseline(1);
        assert_eq!(ledger.balance(1), 0.0);
        assert!(ledger.entry(1).unwrap().window.is_empty());
        assert!((ledger.total() - total).abs() < 1e-12);
        // The whole stale balance moved to agent 2.
        assert!(ledger.balance(2) < 0.0 || ledger.balance(2) > 0.0 || total == 0.0);
    }

    #[test]
    fn temporal_check_needs_a_full_window() {
        let mut ledger = CreditLedger::new();
        ledger.admit(1);
        // Three under-served epochs, window of 4: no verdict yet.
        for _ in 0..3 {
            ledger.accrue(&measured(&[(1, 0.5, 1.0)]), 4);
        }
        assert_eq!(ledger.temporal_check(4, 0.05), (0, 1.0));
        // The fourth epoch fills the window: cumulative 2.0 < 0.95 * 4.0.
        ledger.accrue(&measured(&[(1, 0.5, 1.0)]), 4);
        let (violations, worst) = ledger.temporal_check(4, 0.05);
        assert_eq!(violations, 1);
        assert!((worst - 0.5).abs() < 1e-12);
        // Recovery epochs roll the bad history out of the window.
        for _ in 0..4 {
            ledger.accrue(&measured(&[(1, 1.1, 1.0)]), 4);
        }
        assert_eq!(ledger.temporal_check(4, 0.05).0, 0);
    }

    #[test]
    fn windows_are_bounded_and_clearable() {
        let mut ledger = CreditLedger::new();
        ledger.admit(1);
        for _ in 0..20 {
            ledger.accrue(&measured(&[(1, 1.0, 1.0)]), 6);
        }
        assert_eq!(ledger.entry(1).unwrap().window.len(), 6);
        ledger.clear_windows();
        assert!(ledger.entry(1).unwrap().window.is_empty());
    }

    #[test]
    fn parts_round_trip() {
        let mut ledger = CreditLedger::new();
        ledger.admit(3);
        ledger.admit(9);
        ledger.accrue(&measured(&[(3, 0.4, 1.0), (9, 1.6, 1.0)]), 4);
        let parts = ledger
            .parts()
            .into_iter()
            .map(|(id, e)| (id, e.clone()))
            .collect();
        assert_eq!(CreditLedger::from_parts(parts), ledger);
    }

    #[test]
    fn degenerate_measurements_accrue_nothing() {
        let mut ledger = CreditLedger::new();
        ledger.admit(1);
        ledger.admit(2);
        ledger.accrue(&measured(&[(1, 1.0, 0.0), (2, f64::NAN, f64::INFINITY)]), 4);
        assert_eq!(ledger.balance(1), 0.0);
        assert_eq!(ledger.balance(2), 0.0);
        assert_eq!(ledger.accrue(&[], 4), AccrualSummary::default());
    }
}

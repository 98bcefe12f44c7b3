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

use std::fmt;

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

/// The smallest ring a window outgrowing its ring is given, unless the
/// window bound is shorter: the default temporal window, so a market on
/// the default sizes its rings once.
const RING_MIN: usize = 16;

/// One epoch's `(delivered, entitled)` utilities.
type Pair = (f64, f64);

/// One agent's ledger state, borrowed from the ledger's columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry<'a> {
    /// The credit balance: positive when cumulatively under-served.
    pub balance: f64,
    /// Sliding `(delivered, entitled)` window, oldest first.
    pub window: Window<'a>,
}

/// An agent's `(delivered, entitled)` window, oldest first: the two runs
/// of its ring, the older one first.
#[derive(Clone, Copy)]
pub struct Window<'a> {
    older: &'a [Pair],
    newer: &'a [Pair],
}

impl<'a> Window<'a> {
    /// Pairs in the window.
    pub(crate) fn len(&self) -> usize {
        self.older.len() + self.newer.len()
    }

    /// Whether the window holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pairs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.older.iter().chain(self.newer).copied()
    }

    /// Cumulative `(delivered, entitled)`, folded oldest first.
    pub(crate) fn sums(&self) -> (f64, f64) {
        self.iter()
            .fold((0.0, 0.0), |(d, e), (dd, ee)| (d + dd, e + ee))
    }
}

impl fmt::Debug for Window<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Window<'_> {
    fn eq(&self, other: &Window<'_>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
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

/// The market's credit ledger: one entry per live agent, stored in slot
/// columns.
///
/// Each agent owns a *slot*: its balance in one `f64` column and its
/// window in a ring of `cap` pairs inside one flat buffer. An id-ordered
/// index maps ids to slots, so every walk that must be in id order (the
/// sums, the snapshot) is, and an id-ordered epoch finds its slots in one
/// merge walk. A settled agent's slot goes on a free list for the next
/// admission. Equality compares entries, not slots.
#[derive(Clone, Default)]
pub struct CreditLedger {
    /// `(id, slot)` per live agent, ascending by id.
    index: Vec<(AgentId, usize)>,
    /// Balance per slot; a free slot's is meaningless until it is reused.
    balances: Vec<f64>,
    /// `(start, len)` of each slot's window within its ring.
    spans: Vec<(usize, usize)>,
    /// `cap` pairs per slot: slot `s` owns `ring[s * cap..(s + 1) * cap]`.
    ring: Vec<Pair>,
    cap: usize,
    /// Slots released by settled agents.
    free: Vec<usize>,
}

impl CreditLedger {
    /// Creates an empty ledger.
    pub fn new() -> CreditLedger {
        CreditLedger::default()
    }

    /// Number of entries (one per live agent).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the ledger holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// One agent's entry, if present.
    pub fn entry(&self, id: AgentId) -> Option<LedgerEntry<'_>> {
        self.slot(id).map(|slot| self.view(slot))
    }

    /// Every entry, in ascending id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (AgentId, LedgerEntry<'_>)> {
        self.index.iter().map(|&(id, slot)| (id, self.view(slot)))
    }

    /// An agent's balance (0 for unknown agents).
    pub fn balance(&self, id: AgentId) -> f64 {
        self.slot(id).map_or(0.0, |slot| self.balances[slot])
    }

    /// Opens a zeroed entry for a newly admitted agent (idempotent — a
    /// snapshot restore re-admits agents the ledger already holds).
    pub fn admit(&mut self, id: AgentId) {
        self.slot_or_admit(id);
    }

    /// Settles a departing agent: the entry is removed and its balance is
    /// redistributed equally across the remaining entries, so the ledger
    /// sum is unchanged by churn. A missing id is a no-op.
    pub fn settle(&mut self, id: AgentId) {
        let Ok(at) = self.find(id) else {
            return;
        };
        let (_, slot) = self.index.remove(at);
        self.spans[slot] = (0, 0);
        self.free.push(slot);
        self.redistribute(self.balances[slot], self.index.len());
    }

    /// Re-baselines an agent in place: its balance is redistributed to
    /// the *other* entries and its window is cleared, exactly as if it
    /// had left and immediately rejoined. Applied on demand changes
    /// (including the quarantine lift they perform) and on quarantine
    /// transitions, so accrual from a stale estimation regime never buys
    /// future weight.
    pub fn rebaseline(&mut self, id: AgentId) {
        let Some(slot) = self.slot(id) else {
            return;
        };
        self.spans[slot] = (0, 0);
        self.redistribute(self.balances[slot], self.index.len() - 1);
        self.balances[slot] = 0.0;
    }

    /// Drops every window (capacity reallotments change the entitlement
    /// scale mid-window, so the evidence is discarded; balances — which
    /// are normalized ratios — survive).
    pub fn clear_windows(&mut self) {
        self.spans.fill((0, 0));
    }

    /// Folds one epoch's `(agent, delivered, entitled)` measurements into
    /// the ledger: gaps are normalized, mean-centered, decayed and
    /// capped, and each agent's sliding window advances (bounded by
    /// `window`). Agents missing an entry are admitted on the fly.
    pub fn accrue(&mut self, measured: &[(AgentId, f64, f64)], window: usize) -> AccrualSummary {
        if measured.is_empty() {
            return AccrualSummary::default();
        }
        let mean = measured.iter().map(gap).sum::<f64>() / measured.len() as f64;
        let slots = self.locate(measured);
        let mut summary = AccrualSummary::default();
        // Clamping an outlier balance would silently destroy the zero-sum
        // invariant, so the clamp residual is collected and redistributed
        // equally: the cap is a *soft* bound that settlement spikes can
        // briefly overshoot (by residual / n), with decay pulling every
        // balance back inside. The weight tilt clamps independently, so an
        // overshoot never buys extra weight.
        let mut residual = 0.0;
        for (m, &slot) in measured.iter().zip(&slots) {
            let centered = gap(m) - mean;
            let balance = &mut self.balances[slot];
            if centered > 0.0 {
                summary.accrued += 1;
            } else if centered < 0.0 && *balance > 0.0 {
                summary.spent += 1;
            }
            let tentative = (*balance + centered) * (1.0 - CREDIT_DECAY);
            *balance = tentative.clamp(-CREDIT_CAP, CREDIT_CAP);
            residual += tentative - *balance;
            self.push(slot, (m.1, m.2), window);
        }
        if residual != 0.0 {
            let share = residual / measured.len() as f64;
            for &slot in &slots {
                self.balances[slot] += share;
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
        if window == 0 {
            return (violations, worst);
        }
        for &(_, slot) in &self.index {
            if self.spans[slot].1 < window {
                continue;
            }
            let (delivered, entitled) = self.view(slot).window.sums();
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
        self.iter().map(|(_, e)| e.balance).sum()
    }

    /// Sum of absolute balances — how much credit is outstanding.
    pub fn total_abs(&self) -> f64 {
        self.iter().map(|(_, e)| e.balance.abs()).sum()
    }

    /// Largest absolute balance.
    pub fn max_abs(&self) -> f64 {
        self.iter()
            .map(|(_, e)| e.balance.abs())
            .fold(0.0, f64::max)
    }

    /// Appends a decoded snapshot entry: `id` with `balance` and the
    /// window `pairs` (flattened `delivered, entitled`, oldest first),
    /// its ring sized for windows of up to `limit`. Returns `false`,
    /// changing nothing, unless `id` is above every id held: a snapshot
    /// lists its entries in strictly ascending id order.
    pub(crate) fn push_decoded(
        &mut self,
        id: AgentId,
        balance: f64,
        pairs: &[f64],
        limit: usize,
    ) -> bool {
        if self.index.last().is_some_and(|&(last, _)| last >= id) {
            return false;
        }
        let len = pairs.len() / 2;
        if len > self.cap {
            self.grow(len, limit);
        }
        let slot = self.open_slot();
        self.index.push((id, slot));
        self.balances[slot] = balance;
        let ring = &mut self.ring[slot * self.cap..];
        for (to, pair) in ring.iter_mut().zip(pairs.chunks_exact(2)) {
            *to = (pair[0], pair[1]);
        }
        self.spans[slot] = (0, len);
        true
    }

    fn find(&self, id: AgentId) -> Result<usize, usize> {
        self.index.binary_search_by_key(&id, |&(held, _)| held)
    }

    fn slot(&self, id: AgentId) -> Option<usize> {
        self.find(id).ok().map(|at| self.index[at].1)
    }

    fn view(&self, slot: usize) -> LedgerEntry<'_> {
        let (older, newer) = runs(&self.ring, self.cap, slot, self.spans[slot]);
        LedgerEntry {
            balance: self.balances[slot],
            window: Window { older, newer },
        }
    }

    fn slot_or_admit(&mut self, id: AgentId) -> usize {
        match self.find(id) {
            Ok(at) => self.index[at].1,
            Err(at) => {
                let slot = self.open_slot();
                self.index.insert(at, (id, slot));
                slot
            }
        }
    }

    /// A zeroed slot with an empty window: a free one, or a new one.
    fn open_slot(&mut self) -> usize {
        if let Some(slot) = self.free.pop() {
            self.balances[slot] = 0.0;
            return slot;
        }
        self.balances.push(0.0);
        self.spans.push((0, 0));
        self.ring.resize(self.ring.len() + self.cap, (0.0, 0.0));
        self.balances.len() - 1
    }

    /// Adds `balance / among` to every slot's balance — to a free or
    /// re-baselined slot too, whose balance is reset before it counts
    /// again. Every live balance gets the one addition settlement owes
    /// it, and addition to distinct balances has no order to keep.
    fn redistribute(&mut self, balance: f64, among: usize) {
        if among == 0 || balance == 0.0 {
            return;
        }
        let share = balance / among as f64;
        for b in &mut self.balances {
            *b += share;
        }
    }

    /// Each measurement's slot, admitting ids the ledger lacks. Measured
    /// ids in ascending order — an epoch's — are found in one merge walk
    /// against the index, which absorbs unseen ids as it meets them; any
    /// other order looks each id up.
    fn locate(&mut self, measured: &[(AgentId, f64, f64)]) -> Vec<usize> {
        if !measured.windows(2).all(|w| w[0].0 <= w[1].0) {
            return measured
                .iter()
                .map(|&(id, ..)| self.slot_or_admit(id))
                .collect();
        }
        let mut slots = Vec::with_capacity(measured.len());
        let mut fresh: Vec<(AgentId, usize)> = Vec::new();
        let mut at = 0;
        for &(id, ..) in measured {
            while self.index.get(at).is_some_and(|&(held, _)| held < id) {
                at += 1;
            }
            let slot = match (self.index.get(at), fresh.last()) {
                (Some(&(held, slot)), _) if held == id => slot,
                (_, Some(&(last, slot))) if last == id => slot,
                _ => {
                    let slot = self.open_slot();
                    fresh.push((id, slot));
                    slot
                }
            };
            slots.push(slot);
        }
        self.merge(&fresh);
        slots
    }

    /// Merges ascending `fresh` entries into the index, in place from the
    /// back.
    fn merge(&mut self, fresh: &[(AgentId, usize)]) {
        let mut held = self.index.len();
        self.index.extend_from_slice(fresh);
        let mut to = self.index.len();
        for &entry in fresh.iter().rev() {
            while held > 0 && self.index[held - 1].0 > entry.0 {
                held -= 1;
                to -= 1;
                self.index[to] = self.index[held];
            }
            to -= 1;
            self.index[to] = entry;
        }
    }

    /// Appends `pair` to `slot`'s window, dropping the oldest pairs past
    /// `window`, exactly as a deque's push-back then pop-front would.
    fn push(&mut self, slot: usize, pair: Pair, window: usize) {
        if window == 0 {
            self.spans[slot] = (0, 0);
            return;
        }
        let len = self.spans[slot].1;
        if len == self.cap && len < window {
            self.grow(len + 1, window);
        }
        let (start, len) = self.spans[slot];
        let cap = self.cap;
        // Free, or the oldest pair, which is about to drop.
        self.ring[slot * cap + wrap(start + len, cap)] = pair;
        self.spans[slot] = if len < window {
            (start, len + 1)
        } else {
            (wrap(start + len + 1 - window, cap), window)
        };
    }

    /// Re-lays the rings out at a larger capacity: at least `needed`, at
    /// most `limit` unless `needed` is larger, doubling otherwise. Each
    /// window keeps its order and starts its new ring.
    fn grow(&mut self, needed: usize, limit: usize) {
        let cap = limit.min((2 * self.cap).max(RING_MIN)).max(needed);
        let mut ring = vec![(0.0, 0.0); self.spans.len() * cap];
        for (slot, span) in self.spans.iter_mut().enumerate() {
            let (older, newer) = runs(&self.ring, self.cap, slot, *span);
            let to = &mut ring[slot * cap..];
            to[..older.len()].copy_from_slice(older);
            to[older.len()..span.1].copy_from_slice(newer);
            span.0 = 0;
        }
        self.ring = ring;
        self.cap = cap;
    }
}

/// The normalized gap of one `(agent, delivered, entitled)` measurement.
fn gap(&(_, delivered, entitled): &(AgentId, f64, f64)) -> f64 {
    if entitled <= ENTITLED_FLOOR || !entitled.is_finite() || !delivered.is_finite() {
        0.0
    } else {
        ((entitled - delivered) / entitled).clamp(-1.0, 1.0)
    }
}

/// `i` reduced into a ring of `cap`, for `i < 2 * cap`: a start plus a
/// length, neither past the ring.
fn wrap(i: usize, cap: usize) -> usize {
    debug_assert!(i < 2 * cap);
    if i >= cap {
        i - cap
    } else {
        i
    }
}

/// A window's two runs within slot `slot` of rings of `cap` pairs.
fn runs(
    ring: &[Pair],
    cap: usize,
    slot: usize,
    (start, len): (usize, usize),
) -> (&[Pair], &[Pair]) {
    if len == 0 {
        return (&[], &[]);
    }
    let ring = &ring[slot * cap..(slot + 1) * cap];
    let first = len.min(cap - start);
    (&ring[start..start + first], &ring[..len - first])
}

impl PartialEq for CreditLedger {
    fn eq(&self, other: &CreditLedger) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for CreditLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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
        let mut rebuilt = CreditLedger::new();
        let mut pairs = Vec::new();
        for (id, entry) in ledger.iter() {
            pairs.clear();
            pairs.extend(entry.window.iter().flat_map(|(d, e)| [d, e]));
            assert!(rebuilt.push_decoded(id, entry.balance, &pairs, 4));
        }
        assert_eq!(rebuilt, ledger);
        // A repeated or lower id is refused and changes nothing.
        assert!(!rebuilt.push_decoded(9, 0.0, &[], 4));
        assert!(!rebuilt.push_decoded(4, 0.0, &[], 4));
        assert_eq!(rebuilt, ledger);
    }

    #[test]
    fn slots_are_reused_and_windows_outgrow_their_rings() {
        let mut ledger = CreditLedger::new();
        for id in [5, 1, 3] {
            ledger.admit(id);
        }
        ledger.settle(3);
        ledger.admit(2);
        assert_eq!(ledger.balances.len(), 3, "the settled slot is reused");
        assert_eq!(
            ledger.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            [1, 2, 5]
        );
        // Windows longer than the first ring force a re-layout that keeps
        // every pair in order.
        for epoch in 0..40 {
            let e = f64::from(epoch);
            ledger.accrue(&measured(&[(1, e, 1.0), (2, e, 2.0), (5, e, 3.0)]), 40);
        }
        let window: Vec<(f64, f64)> = ledger.entry(2).unwrap().window.iter().collect();
        assert_eq!(
            window,
            (0..40).map(|e| (f64::from(e), 2.0)).collect::<Vec<_>>()
        );
        // A shorter bound trims only the windows it advances.
        ledger.accrue(&measured(&[(1, 40.0, 1.0)]), 3);
        assert_eq!(ledger.entry(1).unwrap().window.len(), 3);
        assert_eq!(ledger.entry(5).unwrap().window.len(), 40);
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

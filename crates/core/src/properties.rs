//! Game-theoretic property checkers: sharing incentives, envy-freeness and
//! Pareto efficiency (§3 of the paper).
//!
//! These verify *any* allocation against a set of Cobb-Douglas agents —
//! they are how the evaluation demonstrates that equal slowdown violates SI
//! and EF while proportional elasticity satisfies all three (Figs. 10–12).

use std::fmt;

use crate::resource::{Allocation, Bundle, Capacity};
use crate::utility::{CobbDouglas, Utility};

/// Relative tolerance used by [`FairnessReport::check`].
pub const DEFAULT_TOLERANCE: f64 = 1e-6;

/// A sharing-incentive violation: an agent that strictly prefers the equal
/// division to its allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiViolation {
    /// The violated agent.
    pub agent: usize,
    /// Utility of the agent's bundle.
    pub allocated_utility: f64,
    /// Utility of the equal division `C/N`.
    pub equal_split_utility: f64,
}

/// An envy edge: `envious` would rather have `envied`'s bundle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvyEdge {
    /// The agent who envies.
    pub envious: usize,
    /// The agent whose bundle is preferred.
    pub envied: usize,
    /// Utility of the envious agent's own bundle.
    pub own_utility: f64,
    /// Utility the envious agent would get from the other bundle.
    pub other_utility: f64,
}

/// Outcome of checking an allocation against SI, EF and PE.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// Sharing-incentive violations (empty means SI holds).
    pub si_violations: Vec<SiViolation>,
    /// Envy edges (empty means EF holds).
    pub envy_edges: Vec<EnvyEdge>,
    /// Whether the allocation is Pareto efficient (tangent marginal rates
    /// of substitution and exhausted capacity).
    pub pareto_efficient: bool,
    /// Largest relative mismatch among pairwise marginal rates of
    /// substitution (0 for single-agent or single-resource systems).
    pub max_mrs_mismatch: f64,
}

impl FairnessReport {
    /// Whether sharing incentives hold.
    pub fn sharing_incentives(&self) -> bool {
        self.si_violations.is_empty()
    }

    /// Whether envy-freeness holds.
    pub fn envy_free(&self) -> bool {
        self.envy_edges.is_empty()
    }

    /// Whether the allocation is fair in the paper's sense (EF and PE) and
    /// additionally provides sharing incentives.
    pub fn is_fair_with_si(&self) -> bool {
        self.sharing_incentives() && self.envy_free() && self.pareto_efficient
    }

    /// Checks an allocation with [`DEFAULT_TOLERANCE`].
    ///
    /// # Panics
    ///
    /// Panics if `agents.len()` differs from the allocation's agent count
    /// or dimensions disagree with the capacity.
    pub fn check(
        agents: &[CobbDouglas],
        allocation: &Allocation,
        capacity: &Capacity,
    ) -> FairnessReport {
        FairnessReport::check_with_tolerance(agents, allocation, capacity, DEFAULT_TOLERANCE)
    }

    /// Checks an allocation with an explicit relative tolerance.
    ///
    /// The tolerance absorbs round-off from optimization-based mechanisms:
    /// a property counts as violated only when the gap exceeds `tol`
    /// relative to the compared utilities.
    ///
    /// Envy-freeness is decided for every ordered pair of agents. Most
    /// agents are proven envy-free towards everyone at once by a budget
    /// certificate in `O(R)`; most pairs of the rest are proven envy-free in
    /// log space at a multiply-add per resource; the remaining pairs are
    /// evaluated, and the report is the one evaluating all of them would
    /// give, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `agents.len()` differs from the allocation's agent count.
    pub fn check_with_tolerance(
        agents: &[CobbDouglas],
        allocation: &Allocation,
        capacity: &Capacity,
        tol: f64,
    ) -> FairnessReport {
        assert_eq!(
            agents.len(),
            allocation.num_agents(),
            "one utility per agent"
        );
        let equal = capacity.equal_split(agents.len());
        let own: Vec<f64> = agents
            .iter()
            .zip(allocation.bundles())
            .map(|(u, x)| u.value(x))
            .collect();

        let mut si_violations = Vec::new();
        for (i, u) in agents.iter().enumerate() {
            let split = u.value(&equal);
            if own[i] < split * (1.0 - tol) {
                si_violations.push(SiViolation {
                    agent: i,
                    allocated_utility: own[i],
                    equal_split_utility: split,
                });
            }
        }

        let (envy_edges, _) = find_envy(agents, allocation, &own, tol);

        let max_mrs_mismatch = max_mrs_mismatch(agents, allocation);
        let pareto_efficient =
            max_mrs_mismatch <= tol.max(1e-3) && allocation.is_exhaustive(capacity, tol.max(1e-6));

        FairnessReport {
            si_violations,
            envy_edges,
            pareto_efficient,
            max_mrs_mismatch,
        }
    }
}

/// Relative size of the safety margin, per term of the log-space sums:
/// `margin = LOG_MARGIN_PER_TERM · (R + 2) · (1 + size + |ln(1 − tol)|)`,
/// where `size` is `Σ a·max|ln x|` for the row filter and that plus the
/// certificate's own terms for the certificate. The rounding the margin has
/// to dominate — `ln`s and `R`-term sums on the log side, `R` `powf`s and
/// `R + 1` products on the exact side — is below `(38 R + 12) · 2⁻⁵³` of the
/// same size (DESIGN §6), more than two orders of magnitude under this.
const LOG_MARGIN_PER_TERM: f64 = 1e-12;

/// The log-space tiers are trusted for an agent only while `|ln scale| +
/// Σ a·max|ln x| + |ln(1 − tol)|` stays below this: then every factor and
/// partial product of [`Utility::value`] lies in `e^±700`, inside the normal
/// `f64` range (`e^-708 … e^709`), where each operation's relative error is
/// bounded.
const LOG_RANGE_LIMIT: f64 = 700.0;

/// The work one envy audit did, tier by tier (DESIGN §6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvyWork {
    /// Agents the budget certificate proved envy-free in `O(R)`.
    pub certified: u64,
    /// Rows of log utilities formed: one per agent inside the range guard
    /// that the certificate could not clear.
    pub rows: u64,
    /// Ordered pairs evaluated on [`Utility::value`].
    pub evaluated: u64,
}

/// The envy half of [`FairnessReport::check_with_tolerance`]: the same
/// edges in the same order, with the work each tier did to find them.
///
/// # Panics
///
/// Panics if `agents.len()` differs from the allocation's agent count.
pub fn envy_audit(
    agents: &[CobbDouglas],
    allocation: &Allocation,
    tol: f64,
) -> (Vec<EnvyEdge>, EnvyWork) {
    assert_eq!(
        agents.len(),
        allocation.num_agents(),
        "one utility per agent"
    );
    let own: Vec<f64> = agents
        .iter()
        .zip(allocation.bundles())
        .map(|(u, x)| u.value(x))
        .collect();
    find_envy(agents, allocation, &own, tol)
}

/// What the audit learns about an allocation in `O(N·R)`, before any row of
/// log utilities is formed: the range guard's extents, the tolerance's
/// slack, and the budget certificate's prices and largest budget.
struct Screen {
    /// `max_j |ln x_jr|` per resource: infinite when any holding is zero.
    max_abs: Vec<f64>,
    /// `−ln(1 − tol) ≥ 0`, from the same `1.0 − tol` the exact test uses.
    slack: f64,
    margin_rel: f64,
    /// The allocation's own CEEI price, `p_r = Σ_i (a_ir / A_i) / Σ_i x_ir`.
    price: Vec<f64>,
    /// `ln B*`, with `B* = max_j p·x_j`. The budgets sum to `N`, so `B* ≥ 1`;
    /// on a REF allocation every budget is exactly 1.
    ln_budget: f64,
}

impl Screen {
    fn new(agents: &[CobbDouglas], allocation: &Allocation, tol: f64) -> Screen {
        let r_count = allocation.num_resources();
        let mut demand = vec![0.0_f64; r_count];
        let mut supply = vec![0.0_f64; r_count];
        let mut lo = vec![f64::INFINITY; r_count];
        let mut hi = vec![0.0_f64; r_count];
        for (u, x) in agents.iter().zip(allocation.bundles()) {
            let sum = u.elasticity_sum();
            for (r, (&a, &q)) in u.elasticities().iter().zip(x.as_slice()).enumerate() {
                demand[r] += a / sum;
                supply[r] += q;
                lo[r] = lo[r].min(q);
                hi[r] = hi[r].max(q);
            }
        }
        let price: Vec<f64> = demand.iter().zip(&supply).map(|(d, s)| d / s).collect();
        // A budget is NaN only beside a zero holding, which fails every
        // agent's range guard, so `max` skipping NaN clears nobody.
        let budget = allocation
            .bundles()
            .iter()
            .map(|x| price.iter().zip(x.as_slice()).map(|(p, q)| p * q).sum())
            .fold(0.0_f64, f64::max);
        Screen {
            max_abs: lo
                .iter()
                .zip(&hi)
                .map(|(l, h)| l.ln().abs().max(h.ln().abs()))
                .collect(),
            slack: -(1.0 - tol).ln(),
            margin_rel: LOG_MARGIN_PER_TERM * (r_count + 2) as f64,
            price,
            ln_budget: budget.ln(),
        }
    }

    /// `Σ_r a_r · max_j |ln x_jr|` for an agent inside the range guard, or
    /// `None` (NaN included) when every one of its pairs must be evaluated.
    fn reach(&self, u: &CobbDouglas) -> Option<f64> {
        let reach: f64 = u
            .elasticities()
            .iter()
            .zip(&self.max_abs)
            .map(|(a, m)| a * m)
            .sum();
        (u.scale().ln().abs() + reach + self.slack <= LOG_RANGE_LIMIT).then_some(reach)
    }

    fn margin(&self, size: f64) -> f64 {
        self.margin_rel * (1.0 + size + self.slack)
    }

    /// Whether agent `u`, holding `x`, provably envies nobody.
    ///
    /// Over any bundle `y` of cost `p·y ≤ B`, `Σ_r a_r · ln y_r` peaks at
    /// the Cobb-Douglas demand `y_r = (a_r / A) · B / p_r`, so every other
    /// agent's log utility to `u` is at most `A · ln B* + Σ_r a_r · ln(a_r /
    /// (A · p_r))`. Less `u`'s own log utility, that is the gap `A · ln B* +
    /// Σ_r a_r · ln(a_r / (A · p_r · x_r))`, and a gap at most `−ln(1 − tol)
    /// − margin` clears every pair of the agent as the exact test computes
    /// it. A quotient that is not a normal number refuses: one that
    /// underflows to zero would clear the agent outright.
    fn certifies(&self, u: &CobbDouglas, x: &Bundle, reach: f64) -> bool {
        let sum = u.elasticity_sum();
        let mut gap = sum * self.ln_budget;
        let mut size = reach + sum * (1.0 + self.ln_budget.abs());
        for ((&a, &q), &p) in u.elasticities().iter().zip(x.as_slice()).zip(&self.price) {
            if a == 0.0 {
                continue;
            }
            let ratio = a / (sum * (p * q));
            if !ratio.is_normal() {
                return false;
            }
            let l = ratio.ln();
            gap += a * l;
            size += a * l.abs();
        }
        gap <= self.slack - self.margin(size)
    }
}

/// `ln` of every bundle entry, resource-major, for the row filter, and the
/// row being filtered.
struct LogBundles {
    num_agents: usize,
    /// `ln_x[r · N + j] = ln x_jr`.
    ln_x: Vec<f64>,
    row: Vec<f64>,
}

impl LogBundles {
    fn new(allocation: &Allocation) -> LogBundles {
        let n = allocation.num_agents();
        let r_count = allocation.num_resources();
        let mut ln_x = Vec::with_capacity(r_count * n);
        for r in 0..r_count {
            ln_x.extend(allocation.bundles().iter().map(|x| x.get(r).ln()));
        }
        LogBundles {
            num_agents: n,
            ln_x,
            row: vec![0.0; n],
        }
    }

    /// Fills `row[j] = Σ_r a_r · ln x_jr` for agent `i`, sets `row[i]` to
    /// `−∞` (it is no pair) and returns the value it held.
    fn fill(&mut self, u: &CobbDouglas, i: usize) -> f64 {
        self.row.fill(0.0);
        let columns = self.ln_x.chunks_exact(self.num_agents);
        for (a, column) in u.elasticities().iter().zip(columns) {
            for (acc, l) in self.row.iter_mut().zip(column) {
                *acc += a * l;
            }
        }
        std::mem::replace(&mut self.row[i], f64::NEG_INFINITY)
    }
}

/// Every ordered pair `(i, j)` with `u_i(x_i) < u_i(x_j) · (1 − tol)`, in
/// `(i, j)` order, plus the work it took.
///
/// Three tiers, each of which only ever clears (DESIGN §6):
///
/// 1. The budget certificate ([`Screen::certifies`]) clears an agent
///    against everyone in `O(R)`; on a REF allocation it clears them all.
/// 2. An agent it cannot clear forms its row of log utilities, and a pair
///    costs one multiply-add per resource: `a_i · ln x_j ≤ a_i · ln x_i −
///    ln(1 − tol) − margin` clears it.
/// 3. A pair neither tier clears runs the exact test on [`Utility::value`].
///
/// Both log-space tiers prove `u_i(x_i) ≥ u_i(x_j) · (1 − tol)` *as the
/// floating-point test computes it*, because their margins exceed the
/// combined rounding of both forms. Every pair of an agent outside the range
/// guard, or of an audit whose `tol` is outside `[0, 1)`, goes straight to
/// the exact test, so the edge list is the double loop's, bit for bit. The
/// log table is built only once some agent needs a row.
fn find_envy(
    agents: &[CobbDouglas],
    allocation: &Allocation,
    own: &[f64],
    tol: f64,
) -> (Vec<EnvyEdge>, EnvyWork) {
    let n = agents.len();
    let screen = (0.0..1.0)
        .contains(&tol)
        .then(|| Screen::new(agents, allocation, tol));
    let mut logs: Option<LogBundles> = None;
    let mut edges = Vec::new();
    let mut work = EnvyWork::default();
    for (i, u) in agents.iter().enumerate() {
        let mut filter: Option<(&[f64], f64)> = None;
        let screened = screen
            .as_ref()
            .and_then(|s| s.reach(u).map(|reach| (s, reach)));
        if let Some((screen, reach)) = screened {
            if screen.certifies(u, allocation.bundle(i), reach) {
                work.certified += 1;
                continue;
            }
            let logs = logs.get_or_insert_with(|| LogBundles::new(allocation));
            let own_log = logs.fill(u, i);
            work.rows += 1;
            filter = Some((&logs.row, own_log + screen.slack - screen.margin(reach)));
        }
        // A branch-free sweep first: most agents have nobody left to evaluate.
        if filter.is_some_and(|(row, limit)| row.iter().filter(|&&l| l <= limit).count() == n) {
            continue;
        }
        for j in 0..n {
            if i == j || filter.is_some_and(|(row, limit)| row[j] <= limit) {
                continue;
            }
            work.evaluated += 1;
            let other = u.value(allocation.bundle(j));
            if own[i] < other * (1.0 - tol) {
                edges.push(EnvyEdge {
                    envious: i,
                    envied: j,
                    own_utility: own[i],
                    other_utility: other,
                });
            }
        }
    }
    (edges, work)
}

impl fmt::Display for FairnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SI {} | EF {} | PE {}",
            if self.sharing_incentives() {
                "ok".to_string()
            } else {
                format!("violated by {} agent(s)", self.si_violations.len())
            },
            if self.envy_free() {
                "ok".to_string()
            } else {
                format!("{} envy edge(s)", self.envy_edges.len())
            },
            if self.pareto_efficient {
                "ok".to_string()
            } else {
                format!("violated (MRS mismatch {:.2e})", self.max_mrs_mismatch)
            }
        )
    }
}

/// Largest relative disagreement between any two agents' marginal rates of
/// substitution, over all resource pairs (the PE tangency condition,
/// Eq. 10). Pairs with undefined MRS (zero elasticity or zero holdings)
/// are skipped.
pub fn max_mrs_mismatch(agents: &[CobbDouglas], allocation: &Allocation) -> f64 {
    let r_count = allocation.num_resources();
    let mut worst = 0.0_f64;
    for r in 0..r_count {
        for s in (r + 1)..r_count {
            let (mut defined, mut min, mut max) = (0_usize, f64::INFINITY, f64::NEG_INFINITY);
            for (i, u) in agents.iter().enumerate() {
                match u.mrs(allocation.bundle(i), r, s) {
                    Ok(m) if m.is_finite() && m > 0.0 => {
                        defined += 1;
                        min = min.min(m);
                        max = max.max(m);
                    }
                    _ => {}
                }
            }
            if defined < 2 {
                continue;
            }
            worst = worst.max(max / min - 1.0);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{
        CreditInner, CreditMechanism, EqualShare, MaxWelfare, Mechanism, ProportionalElasticity,
    };

    fn fixture() -> (Vec<CobbDouglas>, Capacity) {
        (
            vec![
                CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap(),
                CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap(),
            ],
            Capacity::new(vec![24.0, 12.0]).unwrap(),
        )
    }

    #[test]
    fn ref_allocation_passes_all_properties() {
        let (agents, c) = fixture();
        let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        let report = FairnessReport::check(&agents, &alloc, &c);
        assert!(report.sharing_incentives(), "{report:?}");
        assert!(report.envy_free(), "{report:?}");
        assert!(report.pareto_efficient, "{report:?}");
        assert!(report.is_fair_with_si());
    }

    #[test]
    fn equal_split_is_si_ef_but_not_pe() {
        let (agents, c) = fixture();
        let alloc = EqualShare.allocate(&agents, &c).unwrap();
        let report = FairnessReport::check(&agents, &alloc, &c);
        assert!(report.sharing_incentives());
        assert!(report.envy_free());
        // Heterogeneous agents at the midpoint have unequal MRS.
        assert!(!report.pareto_efficient, "{report:?}");
        assert!(report.max_mrs_mismatch > 0.1);
    }

    #[test]
    fn lopsided_allocation_violates_si_and_ef() {
        let (agents, c) = fixture();
        // Agent 0 gets almost everything.
        let alloc = Allocation::new(
            vec![
                Bundle::new(vec![23.0, 11.0]).unwrap(),
                Bundle::new(vec![1.0, 1.0]).unwrap(),
            ],
            &c,
        )
        .unwrap();
        let report = FairnessReport::check(&agents, &alloc, &c);
        assert_eq!(report.si_violations.len(), 1);
        assert_eq!(report.si_violations[0].agent, 1);
        assert_eq!(report.envy_edges.len(), 1);
        assert_eq!(report.envy_edges[0].envious, 1);
        assert_eq!(report.envy_edges[0].envied, 0);
        assert!(!report.is_fair_with_si());
    }

    #[test]
    fn wasted_capacity_is_not_pareto_efficient() {
        let (agents, c) = fixture();
        // Tangent MRS (both agents hold proportional bundles) but only half
        // the machine handed out.
        let alloc = Allocation::new(
            vec![
                Bundle::new(vec![9.0, 2.0]).unwrap(),
                Bundle::new(vec![3.0, 4.0]).unwrap(),
            ],
            &c,
        )
        .unwrap();
        let report = FairnessReport::check(&agents, &alloc, &c);
        assert!(!report.pareto_efficient);
    }

    #[test]
    fn tolerance_absorbs_round_off() {
        let (agents, c) = fixture();
        // REF allocation with a 1e-7 perturbation.
        let alloc = Allocation::new(
            vec![
                Bundle::new(vec![18.0 - 1e-7, 4.0]).unwrap(),
                Bundle::new(vec![6.0, 8.0 - 1e-7]).unwrap(),
            ],
            &c,
        )
        .unwrap();
        let report = FairnessReport::check_with_tolerance(&agents, &alloc, &c, 1e-4);
        assert!(report.is_fair_with_si());
    }

    #[test]
    fn corner_allocations_are_envy_free_but_useless() {
        // Paper §3.2: giving all of one resource to each agent yields zero
        // utility for both, hence no envy.
        let (agents, c) = fixture();
        let alloc = Allocation::new(
            vec![
                Bundle::new(vec![24.0, 0.0]).unwrap(),
                Bundle::new(vec![0.0, 12.0]).unwrap(),
            ],
            &c,
        )
        .unwrap();
        let report = FairnessReport::check(&agents, &alloc, &c);
        assert!(report.envy_free());
        // But both agents strictly prefer the equal split: SI fails.
        assert_eq!(report.si_violations.len(), 2);
    }

    #[test]
    fn display_summarizes_verdicts() {
        let (agents, c) = fixture();
        let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        let report = FairnessReport::check(&agents, &alloc, &c);
        assert_eq!(report.to_string(), "SI ok | EF ok | PE ok");
        let lopsided = Allocation::new(
            vec![
                Bundle::new(vec![23.0, 11.0]).unwrap(),
                Bundle::new(vec![1.0, 1.0]).unwrap(),
            ],
            &c,
        )
        .unwrap();
        let report = FairnessReport::check(&agents, &lopsided, &c);
        assert!(report.to_string().contains("violated"));
        assert!(report.to_string().contains("envy"));
    }

    /// The envy pass with the count of pairs no tier could clear.
    fn envy_pass(agents: &[CobbDouglas], alloc: &Allocation, tol: f64) -> (Vec<EnvyEdge>, u64) {
        let (edges, work) = envy_audit(agents, alloc, tol);
        (edges, work.evaluated)
    }

    #[test]
    fn certificate_clears_every_agent_of_a_large_ref_allocation() {
        for n in [2_000_usize, 20_000] {
            let agents: Vec<CobbDouglas> = (0..n)
                .map(|i| {
                    // 16 elasticity levels dealt in turn, so many agents hold
                    // the same bundle and sit at equal log utility.
                    let a = 0.1 + 0.8 * (i % 16) as f64 / 15.0;
                    CobbDouglas::new(1.0 + (i % 7) as f64, vec![a, 1.0 - a]).unwrap()
                })
                .collect();
            let c = Capacity::new(vec![2.0 * n as f64, n as f64]).unwrap();
            let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
            let (edges, work) = envy_audit(&agents, &alloc, 1e-2);
            assert!(edges.is_empty());
            let all = EnvyWork {
                certified: n as u64,
                rows: 0,
                evaluated: 0,
            };
            assert_eq!(work, all, "of {} pairs", n * (n - 1));
        }
    }

    #[test]
    fn lopsided_allocation_forms_rows_only_for_agents_not_certified() {
        // Three like-minded agents; agent 0 holds most of both resources, in
        // the proportions it demands at the allocation's own prices. It is
        // certified; the other two envy it and need their rows.
        let agents = vec![CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap(); 3];
        let c = Capacity::new(vec![24.0, 12.0]).unwrap();
        let alloc = Allocation::new(
            vec![
                Bundle::new(vec![20.0, 10.0]).unwrap(),
                Bundle::new(vec![2.0, 1.0]).unwrap(),
                Bundle::new(vec![2.0, 1.0]).unwrap(),
            ],
            &c,
        )
        .unwrap();
        let (edges, work) = envy_audit(&agents, &alloc, 1e-2);
        let pairs: Vec<(usize, usize)> = edges.iter().map(|e| (e.envious, e.envied)).collect();
        assert_eq!(pairs, [(1, 0), (2, 0)]);
        // Agents 1 and 2 hold identical bundles: the row filter clears that
        // pair, and only the edges themselves are evaluated.
        let want = EnvyWork {
            certified: 1,
            rows: 2,
            evaluated: 2,
        };
        assert_eq!(work, want);

        // The paper's pair at the lopsided split: neither agent holds its
        // own demand at these prices, so both form rows.
        let (agents, c) = fixture();
        let alloc = Allocation::new(
            vec![
                Bundle::new(vec![23.0, 11.0]).unwrap(),
                Bundle::new(vec![1.0, 1.0]).unwrap(),
            ],
            &c,
        )
        .unwrap();
        let (edges, work) = envy_audit(&agents, &alloc, 1e-2);
        assert_eq!((edges[0].envious, edges[0].envied), (1, 0));
        let want = EnvyWork {
            certified: 0,
            rows: 2,
            evaluated: 1,
        };
        assert_eq!(work, want);
    }

    /// Reports, without gating it, how much of the audit the certificate
    /// takes off optimization-backed allocations (`--nocapture` prints it).
    #[test]
    fn certificate_coverage_of_optimized_allocations() {
        let agents: Vec<CobbDouglas> = (0..48)
            .map(|i| {
                let a = 0.1 + 0.8 * ((i * 7) % 16) as f64 / 15.0;
                CobbDouglas::new(1.0, vec![a, 1.0 - a]).unwrap()
            })
            .collect();
        let weights: Vec<f64> = (0..48).map(|i| 0.8 + 0.4 * (i % 5) as f64 / 4.0).collect();
        let c = Capacity::new(vec![24.0, 12.0]).unwrap();
        let with_fairness = MaxWelfare::with_fairness();
        let credit = CreditMechanism::new(CreditInner::MaxWelfare, weights).unwrap();
        let cases: [(&dyn Mechanism, &[CobbDouglas]); 2] =
            [(&with_fairness, &agents[..12]), (&credit, &agents)];
        for (mechanism, agents) in cases {
            let alloc = mechanism.allocate(agents, &c).unwrap();
            for tol in [1e-6, 1e-2] {
                let (_, work) = envy_audit(agents, &alloc, tol);
                assert_eq!(work.certified + work.rows, agents.len() as u64);
                println!(
                    "{} at {} agents, tol {tol:e}: {work:?}",
                    mechanism.name(),
                    agents.len()
                );
            }
        }
    }

    #[test]
    fn pairs_inside_the_margin_are_evaluated() {
        // Identical bundles at zero tolerance: every pair sits exactly on
        // the boundary, where only the exact test may decide.
        let (agents, c) = fixture();
        let alloc = EqualShare.allocate(&agents, &c).unwrap();
        let (edges, evaluated) = envy_pass(&agents, &alloc, 0.0);
        assert!(edges.is_empty());
        assert_eq!(evaluated, 2);
        // With room to spare the same pairs are cleared unevaluated.
        assert_eq!(envy_pass(&agents, &alloc, 1e-6).1, 0);
    }

    #[test]
    fn tolerances_outside_the_unit_interval_skip_the_filter() {
        let (agents, c) = fixture();
        let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        for tol in [1.0, 1.5, -0.1, f64::NAN] {
            assert_eq!(envy_pass(&agents, &alloc, tol).1, 2, "tol {tol}");
        }
    }

    #[test]
    fn utilities_outside_the_normal_range_skip_the_filter() {
        // Agent 0 strictly prefers its own bundle, but `(5e-151)^2.155`
        // underflows to zero while `(2e-150)^2.155` is a subnormal: as
        // computed, agent 0 has utility 0 and envies agent 1. The filter,
        // working in logs, would clear the pair; the range guard must not
        // let it.
        let agents = vec![
            CobbDouglas::new(1.0, vec![2.155, 1.0]).unwrap(),
            CobbDouglas::new(1.0, vec![2.155, 1.0]).unwrap(),
        ];
        let c = Capacity::new(vec![3e-150, 1.01e150]).unwrap();
        let alloc = Allocation::new(
            vec![
                Bundle::new(vec![0.5e-150, 1e150]).unwrap(),
                Bundle::new(vec![2e-150, 1e148]).unwrap(),
            ],
            &c,
        )
        .unwrap();
        let (edges, evaluated) = envy_pass(&agents, &alloc, 1e-2);
        assert_eq!(evaluated, 2);
        assert_eq!(edges.len(), 1);
        assert_eq!((edges[0].envious, edges[0].envied), (0, 1));
        assert_eq!(edges[0].own_utility, 0.0);

        // Zero holdings make a column's logs infinite: same fallback.
        let (agents, c) = fixture();
        let alloc = Allocation::new(
            vec![
                Bundle::new(vec![24.0, 0.0]).unwrap(),
                Bundle::new(vec![0.0, 12.0]).unwrap(),
            ],
            &c,
        )
        .unwrap();
        assert_eq!(envy_pass(&agents, &alloc, 1e-2).1, 2);
    }

    #[test]
    fn a_quotient_that_underflows_cannot_clear_an_agent() {
        // Agent 0 values resource 1 at the smallest subnormal elasticity, so
        // its certificate term `a · ln(a / (A · p · x))` is `a · ln 0 = −∞`
        // as computed, though it is 0 in truth. Agent 0 envies agent 1.
        let agents = vec![
            CobbDouglas::new(1.0, vec![10.0, f64::from_bits(1)]).unwrap(),
            CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap(),
        ];
        let c = Capacity::new(vec![10.0, 10.0]).unwrap();
        let alloc = Allocation::new(
            vec![
                Bundle::new(vec![2.0, 5.0]).unwrap(),
                Bundle::new(vec![8.0, 5.0]).unwrap(),
            ],
            &c,
        )
        .unwrap();
        let (edges, work) = envy_audit(&agents, &alloc, 1e-2);
        assert_eq!((edges.len(), edges[0].envious, edges[0].envied), (1, 0, 1));
        let want = EnvyWork {
            certified: 0,
            rows: 2,
            evaluated: 1,
        };
        assert_eq!(work, want);
    }

    #[test]
    fn single_agent_always_fair_when_given_everything() {
        let agents = vec![CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap()];
        let c = Capacity::new(vec![10.0, 10.0]).unwrap();
        let alloc = Allocation::new(vec![c.as_bundle()], &c).unwrap();
        let report = FairnessReport::check(&agents, &alloc, &c);
        assert!(report.is_fair_with_si());
        assert_eq!(report.max_mrs_mismatch, 0.0);
    }
}

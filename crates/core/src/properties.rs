//! Game-theoretic property checkers: sharing incentives, envy-freeness and
//! Pareto efficiency (§3 of the paper).
//!
//! These verify *any* allocation against a set of Cobb-Douglas agents —
//! they are how the evaluation demonstrates that equal slowdown violates SI
//! and EF while proportional elasticity satisfies all three (Figs. 10–12).

use std::fmt;

use crate::resource::{Allocation, Capacity};
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
    /// pairs are proven envy-free in log space at a multiply-add per
    /// resource; the rest are evaluated, and the report is the one
    /// evaluating all of them would give, bit for bit.
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

/// Relative size of the filter's safety margin, per term of the log-space
/// sum: `margin = LOG_MARGIN_PER_TERM · (R + 2) · (1 + Σ a·max|ln x| +
/// |ln(1 − tol)|)`. The rounding the margin has to dominate — `ln` and the
/// `R`-term dot product on the log side, `R` `powf`s and `R + 1` products
/// on the exact side — is below `(36 R + 12) · 2⁻⁵³` of the same magnitude
/// (DESIGN §6), more than two orders of magnitude under this.
const LOG_MARGIN_PER_TERM: f64 = 1e-12;

/// The filter is trusted for an agent only while `|ln scale| + Σ a·max|ln x|
/// + |ln(1 − tol)|` stays below this: then every factor and partial product
/// of [`Utility::value`] lies in `e^±700`, inside the normal `f64` range
/// (`e^-708 … e^709`), where each operation's relative error is bounded.
const LOG_RANGE_LIMIT: f64 = 700.0;

/// `ln` of every bundle entry, resource-major, for the envy filter.
struct LogBundles {
    num_agents: usize,
    /// `ln_x[r · N + j] = ln x_jr`.
    ln_x: Vec<f64>,
    /// `max_j |ln x_jr|` per resource: infinite when any holding is zero.
    max_abs: Vec<f64>,
    /// `−ln(1 − tol) ≥ 0`, from the same `1.0 − tol` the exact test uses.
    slack: f64,
    margin_rel: f64,
}

impl LogBundles {
    fn new(allocation: &Allocation, tol: f64) -> LogBundles {
        let n = allocation.num_agents();
        let r_count = allocation.num_resources();
        let mut ln_x = Vec::with_capacity(r_count * n);
        let mut max_abs = Vec::with_capacity(r_count);
        for r in 0..r_count {
            let mut worst = 0.0_f64;
            for x in allocation.bundles() {
                let l = x.get(r).ln();
                worst = worst.max(l.abs());
                ln_x.push(l);
            }
            max_abs.push(worst);
        }
        LogBundles {
            num_agents: n,
            ln_x,
            max_abs,
            slack: -(1.0 - tol).ln(),
            margin_rel: LOG_MARGIN_PER_TERM * (r_count + 2) as f64,
        }
    }

    /// Fills `row[j] = Σ_r a_r · ln x_jr` for agent `i` (and `−∞` at `i`
    /// itself, which is no pair) and returns the value at or below which a
    /// pair is proven envy-free, or `None` when the agent fails the range
    /// guard (written so NaN fails it too) and every one of its pairs must
    /// be evaluated.
    fn row(&self, u: &CobbDouglas, i: usize, row: &mut [f64]) -> Option<f64> {
        let reach: f64 = u
            .elasticities()
            .iter()
            .zip(&self.max_abs)
            .map(|(a, m)| a * m)
            .sum();
        let in_range = u.scale().ln().abs() + reach + self.slack <= LOG_RANGE_LIMIT;
        if !in_range {
            return None;
        }
        let mut terms = u
            .elasticities()
            .iter()
            .zip(self.ln_x.chunks_exact(self.num_agents));
        let (a, column) = terms.next()?;
        for (acc, l) in row.iter_mut().zip(column) {
            *acc = a * l;
        }
        for (a, column) in terms {
            for (acc, l) in row.iter_mut().zip(column) {
                *acc += a * l;
            }
        }
        let margin = self.margin_rel * (1.0 + reach + self.slack);
        let limit = row[i] + self.slack - margin;
        row[i] = f64::NEG_INFINITY;
        Some(limit)
    }
}

/// Every ordered pair `(i, j)` with `u_i(x_i) < u_i(x_j) · (1 − tol)`, in
/// `(i, j)` order, plus the number of pairs that had to be evaluated.
///
/// A pair is first tried in log space, where it costs one multiply-add per
/// resource: `a_i · ln x_j ≤ a_i · ln x_i − ln(1 − tol) − margin` proves
/// `u_i(x_i) ≥ u_i(x_j) · (1 − tol)` *as the floating-point test below
/// computes it*, because the margin exceeds the combined rounding of both
/// forms. The filter only ever clears; a pair it cannot clear — and every
/// pair of an agent outside the range guard, or of an audit whose `tol` is
/// outside `[0, 1)` — runs the exact test on [`Utility::value`], so the edge
/// list is the double loop's, bit for bit.
fn find_envy(
    agents: &[CobbDouglas],
    allocation: &Allocation,
    own: &[f64],
    tol: f64,
) -> (Vec<EnvyEdge>, u64) {
    let n = agents.len();
    let logs = (0.0..1.0)
        .contains(&tol)
        .then(|| LogBundles::new(allocation, tol));
    let mut row = vec![0.0_f64; n];
    let mut edges = Vec::new();
    let mut evaluated = 0_u64;
    for (i, u) in agents.iter().enumerate() {
        let limit = logs.as_ref().and_then(|logs| logs.row(u, i, &mut row));
        // A branch-free sweep first: most agents have nobody left to evaluate.
        if limit.is_some_and(|limit| row.iter().filter(|&&l| l <= limit).count() == n) {
            continue;
        }
        for j in 0..n {
            if i == j || limit.is_some_and(|limit| row[j] <= limit) {
                continue;
            }
            evaluated += 1;
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
    (edges, evaluated)
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
    use crate::mechanism::{EqualShare, Mechanism, ProportionalElasticity};
    use crate::resource::Bundle;

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

    /// Own-bundle utilities and the envy pass, as `check_with_tolerance`
    /// runs them, with the count of pairs the filter could not clear.
    fn envy_pass(agents: &[CobbDouglas], alloc: &Allocation, tol: f64) -> (Vec<EnvyEdge>, u64) {
        let own: Vec<f64> = agents
            .iter()
            .zip(alloc.bundles())
            .map(|(u, x)| u.value(x))
            .collect();
        find_envy(agents, alloc, &own, tol)
    }

    #[test]
    fn filter_clears_every_pair_of_a_large_ref_allocation() {
        let n = 2_000_usize;
        let agents: Vec<CobbDouglas> = (0..n)
            .map(|i| {
                // 16 elasticity levels dealt in turn, so many agents hold
                // the same bundle and sit at equal log utility.
                let a = 0.1 + 0.8 * (i % 16) as f64 / 15.0;
                CobbDouglas::new(1.0 + (i % 7) as f64, vec![a, 1.0 - a]).unwrap()
            })
            .collect();
        let c = Capacity::new(vec![4000.0, 2000.0]).unwrap();
        let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        let (edges, evaluated) = envy_pass(&agents, &alloc, 1e-2);
        assert!(edges.is_empty());
        assert_eq!(evaluated, 0, "of {} pairs", n * (n - 1));
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
    fn single_agent_always_fair_when_given_everything() {
        let agents = vec![CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap()];
        let c = Capacity::new(vec![10.0, 10.0]).unwrap();
        let alloc = Allocation::new(vec![c.as_bundle()], &c).unwrap();
        let report = FairnessReport::check(&agents, &alloc, &c);
        assert!(report.is_fair_with_si());
        assert_eq!(report.max_mrs_mismatch, 0.0);
    }
}

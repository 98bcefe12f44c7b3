//! Nash-social-welfare maximization via geometric programming (§4.5).

use ref_solver::gp::{GeometricProgram, GpWarmStart, Monomial, Posynomial};

use crate::error::{CoreError, Result};
use crate::mechanism::{proportional_split, validate_inputs, Mechanism};
use crate::resource::{Allocation, Bundle, Capacity};
use crate::utility::CobbDouglas;

/// Elasticities below this threshold are treated as zero when forming
/// marginal-rate-of-substitution (PE) constraints, which divide by them.
const PE_ELASTICITY_FLOOR: f64 = 1e-6;

/// Relaxation half-width for the Pareto-efficiency monomial equalities.
pub(crate) const PE_BAND: f64 = 1e-3;

/// Relaxation applied to the EF and SI constraints: `u_i(x_j) <= (1 + eps)
/// u_i(x_i)`. Exact constraints can have an empty strict interior (e.g.
/// identical agents, for whom the equal split is the unique fair point),
/// which a log-barrier method cannot center in. The relaxation is an order
/// of magnitude below the tolerance the property checkers use.
const FAIRNESS_SLACK: f64 = 1e-4;

/// Maximizes Nash social welfare `prod_i U_i(x_i)`, optionally subject to
/// the game-theoretic fairness conditions of Eq. 11.
///
/// Subject to capacity alone ("Max Welfare w/o Fairness", the evaluation's
/// empirical upper bound on throughput) the objective separates per
/// resource: `sum_i a_ir ln x_ir` under `sum_i x_ir <= C_r` is maximized at
/// `x_ir = C_r a_ir / sum_j a_jr`, the proportional split REF makes of its
/// re-scaled elasticities. That closed form is the allocation: no solve,
/// `O(N R)`, and no warm-start hint. Raising each utility to a credit
/// weight `w_i` makes the demands `w_i a_ir`, so the credit tilt of this
/// mechanism is closed-form too.
///
/// Under the fairness constraints ("Max Welfare w/ Fairness") it is a
/// geometric program, tractable exactly as the paper's footnote 2
/// observes: Cobb-Douglas utilities are monomials, so the product objective
/// and every constraint (capacity, sharing incentives, envy-freeness, the
/// Pareto tangency conditions) are posynomials or monomials. See
/// [`NashProgram`].
///
/// Normalizing each `U_i = u_i / u_i(C)` rescales the objective by a
/// constant, so the optimizer works with the raw fitted utilities directly.
///
/// # Examples
///
/// ```
/// use ref_core::mechanism::{MaxWelfare, Mechanism};
/// use ref_core::resource::Capacity;
/// use ref_core::utility::CobbDouglas;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let agents = vec![
///     CobbDouglas::new(1.0, vec![0.6, 0.4])?,
///     CobbDouglas::new(1.0, vec![0.2, 0.8])?,
/// ];
/// let capacity = Capacity::new(vec![24.0, 12.0])?;
/// let alloc = MaxWelfare::with_fairness().allocate(&agents, &capacity)?;
/// // Coincides with the paper's closed-form REF allocation.
/// assert!((alloc.bundle(0).get(0) - 18.0).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxWelfare {
    fairness: bool,
}

impl MaxWelfare {
    /// Nash welfare subject to SI, EF and PE constraints
    /// ("Max Welfare w/ Fairness").
    pub fn with_fairness() -> MaxWelfare {
        MaxWelfare { fairness: true }
    }

    /// Nash welfare subject to capacity only
    /// ("Max Welfare w/o Fairness", the throughput upper bound).
    pub fn without_fairness() -> MaxWelfare {
        MaxWelfare { fairness: false }
    }
}

/// Nash social welfare subject to capacity as a geometric program over the
/// bundle variables `x_ir`: minimize the monomial `prod_i u_i(x_i)^{-1}`
/// subject to `sum_i x_ir / C_r <= 1`, started from half the equal
/// division.
///
/// [`MaxWelfare::with_fairness`] solves this program extended by the Eq. 11
/// constraints. Unextended, no mechanism solves it —
/// [`MaxWelfare::without_fairness`] allocates its optimum in closed form —
/// but it is the solver's fixture: the barrier method's whole central path
/// on it is known in closed form too, so it tests the interior-point
/// method the constrained mechanisms run on against an oracle that shares
/// nothing with it. Pass credit-tilted agents
/// ([`CreditMechanism::tilted`](crate::mechanism::CreditMechanism::tilted))
/// for weighted Nash welfare.
#[derive(Debug, Clone)]
pub struct NashProgram {
    gp: GeometricProgram,
    x0: Vec<f64>,
    capacity: Capacity,
}

impl NashProgram {
    /// The program for `agents` sharing `capacity`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for an empty agent list or a
    /// dimension mismatch.
    pub fn new(agents: &[CobbDouglas], capacity: &Capacity) -> Result<NashProgram> {
        validate_inputs(agents, capacity)?;
        let n = agents.len();
        let r_count = capacity.num_resources();
        let num_vars = n * r_count;
        let mut coeff = 1.0;
        let mut exp = Vec::with_capacity(num_vars);
        for (i, agent) in agents.iter().enumerate() {
            coeff /= agent.scale();
            for r in 0..r_count {
                exp.push((idx(i, r, r_count), -agent.elasticity(r)));
            }
        }
        let objective = Monomial::sparse(coeff, num_vars, &exp).map_err(CoreError::from)?;
        let mut gp = GeometricProgram::minimize(num_vars, objective.into())?;
        for c in capacity_constraints(n, capacity, num_vars)? {
            gp.add_constraint(c)?;
        }
        let mut x0 = vec![0.0; num_vars];
        interior_start(agents, capacity, false, &mut x0)?;
        Ok(NashProgram {
            gp,
            x0,
            capacity: capacity.clone(),
        })
    }

    /// Adds the SI, EF and PE constraints of Eq. 11 and moves the start to
    /// the (slightly shrunk) REF allocation, which is strictly inside them.
    fn with_fairness(mut self, agents: &[CobbDouglas]) -> Result<NashProgram> {
        let r_count = self.capacity.num_resources();
        let num_vars = self.x0.len();
        for m in envy_free_constraints(agents, r_count, num_vars)? {
            self.gp.add_constraint(m.into())?;
        }
        for m in sharing_incentive_constraints(agents, &self.capacity, num_vars)? {
            self.gp.add_constraint(m.into())?;
        }
        for m in pareto_constraints(agents, r_count, num_vars)? {
            self.gp.add_monomial_equality_with_tolerance(m, PE_BAND)?;
        }
        interior_start(agents, &self.capacity, true, &mut self.x0)?;
        Ok(self)
    }

    /// Solves the program, seeded from `warm` when it is usable (see
    /// [`Mechanism::allocate_warm`]), and returns the allocation with the
    /// hint for the next solve.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn solve_warm(&self, warm: Option<&GpWarmStart>) -> Result<(Allocation, GpWarmStart)> {
        let sol = self.gp.solve_warm(&self.x0, warm)?;
        let r_count = self.capacity.num_resources();
        let bundles: Result<Vec<Bundle>> = sol
            .x
            .chunks(r_count)
            .map(|x| Bundle::new(x.to_vec()))
            .collect();
        let alloc = Allocation::new(bundles?, &self.capacity)?;
        Ok((alloc, GpWarmStart::from_solution(&sol)))
    }
}

/// Flat variable index of agent `i`, resource `r`.
fn idx(i: usize, r: usize, num_resources: usize) -> usize {
    i * num_resources + r
}

/// Capacity constraints `sum_i x_ir / C_r <= 1` as posynomials.
pub(crate) fn capacity_constraints(
    n: usize,
    capacity: &Capacity,
    num_vars: usize,
) -> Result<Vec<Posynomial>> {
    let r_count = capacity.num_resources();
    let mut out = Vec::with_capacity(r_count);
    for r in 0..r_count {
        let terms: ref_solver::Result<Vec<Monomial>> = (0..n)
            .map(|i| {
                Monomial::sparse(
                    1.0 / capacity.get(r),
                    num_vars,
                    &[(idx(i, r, r_count), 1.0)],
                )
            })
            .collect();
        out.push(Posynomial::from_monomials(terms?)?);
    }
    Ok(out)
}

/// Envy-freeness constraints `u_i(x_j) / u_i(x_i) <= 1` as monomials.
pub(crate) fn envy_free_constraints(
    agents: &[CobbDouglas],
    num_resources: usize,
    num_vars: usize,
) -> Result<Vec<Monomial>> {
    let n = agents.len();
    let mut out = Vec::new();
    let mut exp = Vec::with_capacity(2 * num_resources);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            exp.clear();
            for r in 0..num_resources {
                let a = agents[i].elasticity(r);
                exp.push((idx(j, r, num_resources), a));
                exp.push((idx(i, r, num_resources), -a));
            }
            out.push(Monomial::sparse(
                1.0 / (1.0 + FAIRNESS_SLACK),
                num_vars,
                &exp,
            )?);
        }
    }
    Ok(out)
}

/// Sharing-incentive constraints `u_i(C/N) / u_i(x_i) <= 1` as monomials.
pub(crate) fn sharing_incentive_constraints(
    agents: &[CobbDouglas],
    capacity: &Capacity,
    num_vars: usize,
) -> Result<Vec<Monomial>> {
    let n = agents.len();
    let r_count = capacity.num_resources();
    let mut out = Vec::with_capacity(n);
    for (i, agent) in agents.iter().enumerate() {
        let mut coeff = 1.0;
        let mut exp = Vec::with_capacity(r_count);
        for r in 0..r_count {
            let a = agent.elasticity(r);
            coeff *= (capacity.get(r) / n as f64).powf(a);
            exp.push((idx(i, r, r_count), -a));
        }
        out.push(Monomial::sparse(
            coeff / (1.0 + FAIRNESS_SLACK),
            num_vars,
            &exp,
        )?);
    }
    Ok(out)
}

/// Pareto-efficiency tangency conditions (Eq. 11's MRS equalities) as
/// monomial equalities, skipping pairs involving (near-)zero elasticities
/// for which the MRS is undefined.
pub(crate) fn pareto_constraints(
    agents: &[CobbDouglas],
    num_resources: usize,
    num_vars: usize,
) -> Result<Vec<Monomial>> {
    let n = agents.len();
    let mut out = Vec::new();
    let ok = |v: f64| v > PE_ELASTICITY_FLOOR;
    for i in 1..n {
        for r in 1..num_resources {
            let (a_i0, a_ir) = (agents[i].elasticity(0), agents[i].elasticity(r));
            let (a_00, a_0r) = (agents[0].elasticity(0), agents[0].elasticity(r));
            if !(ok(a_i0) && ok(a_ir) && ok(a_00) && ok(a_0r)) {
                continue;
            }
            // MRS_i(r, 0) = MRS_0(r, 0):
            // (a_ir / a_i0) (x_i0 / x_ir) * (a_00 / a_0r) (x_0r / x_00) = 1.
            let coeff = (a_ir / a_i0) * (a_00 / a_0r);
            out.push(Monomial::sparse(
                coeff,
                num_vars,
                &[
                    (idx(i, 0, num_resources), 1.0),
                    (idx(i, r, num_resources), -1.0),
                    (idx(0, r, num_resources), 1.0),
                    (idx(0, 0, num_resources), -1.0),
                ],
            )?);
        }
    }
    Ok(out)
}

/// How far [`interior_start`] shrinks REF when nothing binds: it clears
/// every capacity constraint by `-ln(1 - START_SHRINK)`.
const START_SHRINK: f64 = 1e-4;

/// A strictly interior start for a GP over the bundle variables, written
/// into `x0[..n * R]`. The solver refuses a start that is not strictly
/// inside every constraint, so each rule says why its point is.
///
/// Without fairness: half the equal division. The equal division itself
/// exhausts every capacity constraint, which is the boundary; half of it
/// clears each by `ln 2`.
///
/// With fairness: the REF allocation, which is SI, EF and PE (§4.2),
/// shrunk by a factor `k < 1` (and floored at `1e-9 C_r`):
/// - capacity: REF exhausts it, so the start clears it by `-ln k`;
/// - EF and PE compare bundles shrunk alike, so `k` cancels and the
///   relaxations (`FAIRNESS_SLACK`, `PE_BAND`) are the slack;
/// - SI compares agent `i`'s bundle with the fixed equal split, so the
///   shrink costs it `-s_i ln k` of log utility, `s_i` its elasticity sum.
///   Its slack is `ln(1 + FAIRNESS_SLACK)` plus what REF gives it above the
///   equal split, which is nothing where SI binds (identical agents: REF is
///   the equal split). There `k = 1 - START_SHRINK` spends `s_i 1e-4` of a
///   `1e-4` slack, and at `s_i = 1` puts the start outside.
///
/// So `k = 1 - START_SHRINK` unless that spends more than half of some
/// agent's SI slack; then `k` spends half of the smallest slack per unit of
/// elasticity, and every SI constraint keeps at least half of its own.
pub(crate) fn interior_start(
    agents: &[CobbDouglas],
    capacity: &Capacity,
    fairness: bool,
    x0: &mut [f64],
) -> Result<()> {
    let n = agents.len();
    let r_count = capacity.num_resources();
    if fairness {
        let fair = crate::mechanism::ProportionalElasticity.allocate(agents, capacity)?;
        // The largest -ln k each agent affords: half its SI slack over s_i.
        let affordable = agents
            .iter()
            .enumerate()
            .map(|(i, agent)| {
                let above_equal: f64 = (0..r_count)
                    .filter(|&r| agent.elasticity(r) > 0.0)
                    .map(|r| {
                        let equal = capacity.get(r) / n as f64;
                        agent.elasticity(r) * (fair.bundle(i).get(r) / equal).ln()
                    })
                    .sum();
                (FAIRNESS_SLACK.ln_1p() + above_equal) / (2.0 * agent.elasticity_sum())
            })
            .fold(f64::INFINITY, f64::min);
        let k = if -(-START_SHRINK).ln_1p() <= affordable {
            1.0 - START_SHRINK
        } else {
            // Also where round-off left no slack at all (`k = 1`, on the
            // capacity boundary: the solver refuses it).
            (-affordable.max(0.0)).exp()
        };
        for i in 0..n {
            for r in 0..r_count {
                x0[idx(i, r, r_count)] = (fair.bundle(i).get(r) * k).max(1e-9 * capacity.get(r));
            }
        }
    } else {
        for i in 0..n {
            for r in 0..r_count {
                x0[idx(i, r, r_count)] = 0.5 * capacity.get(r) / n as f64;
            }
        }
    }
    Ok(())
}

impl Mechanism for MaxWelfare {
    fn name(&self) -> &str {
        if self.fairness {
            "max-welfare-with-fairness"
        } else {
            "max-welfare-without-fairness"
        }
    }

    fn allocate(&self, agents: &[CobbDouglas], capacity: &Capacity) -> Result<Allocation> {
        self.allocate_warm(agents, capacity, None)
            .map(|(alloc, _)| alloc)
    }

    fn allocate_warm(
        &self,
        agents: &[CobbDouglas],
        capacity: &Capacity,
        warm: Option<&GpWarmStart>,
    ) -> Result<(Allocation, Option<GpWarmStart>)> {
        if !self.fairness {
            validate_inputs(agents, capacity)?;
            return Ok((proportional_split(agents, capacity)?, None));
        }
        let (alloc, hint) = NashProgram::new(agents, capacity)?
            .with_fairness(agents)?
            .solve_warm(warm)?;
        Ok((alloc, Some(hint)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::ProportionalElasticity;
    use crate::utility::Utility;

    fn paper_agents() -> Vec<CobbDouglas> {
        vec![
            CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap(),
            CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap(),
        ]
    }

    fn paper_capacity() -> Capacity {
        Capacity::new(vec![24.0, 12.0]).unwrap()
    }

    #[test]
    fn unconstrained_nash_on_normalized_agents_matches_ref() {
        // With per-agent elasticities already summing to one, the raw Nash
        // product equals the re-scaled one, so the optimum is the REF
        // closed form.
        let alloc = MaxWelfare::without_fairness()
            .allocate(&paper_agents(), &paper_capacity())
            .unwrap();
        assert!((alloc.bundle(0).get(0) - 18.0).abs() < 0.05, "{alloc:?}");
        assert!((alloc.bundle(0).get(1) - 4.0).abs() < 0.05, "{alloc:?}");
    }

    #[test]
    fn unnormalized_agents_shift_unconstrained_nash() {
        // Agent 0 reports steep (unnormalized) elasticities; the raw Nash
        // optimum weights it by total elasticity mass, unlike REF.
        let agents = vec![
            CobbDouglas::new(1.0, vec![1.2, 0.8]).unwrap(),
            CobbDouglas::new(1.0, vec![0.1, 0.4]).unwrap(),
        ];
        let c = paper_capacity();
        let nash = MaxWelfare::without_fairness()
            .allocate(&agents, &c)
            .unwrap();
        let ref_alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        // Raw Nash bandwidth split 1.2 : 0.1 -> ~22.15 GB/s.
        assert!((nash.bundle(0).get(0) - 24.0 * 1.2 / 1.3).abs() < 0.1);
        // REF rescales to (0.6, 0.4) vs (0.2, 0.8) -> 18 GB/s.
        assert!((ref_alloc.bundle(0).get(0) - 18.0).abs() < 1e-9);
        assert!(nash.bundle(0).get(0) > ref_alloc.bundle(0).get(0) + 1.0);
    }

    #[test]
    fn fair_variant_satisfies_fairness_conditions() {
        let agents = vec![
            CobbDouglas::new(1.0, vec![1.2, 0.8]).unwrap(),
            CobbDouglas::new(1.0, vec![0.1, 0.4]).unwrap(),
        ];
        let c = paper_capacity();
        let alloc = MaxWelfare::with_fairness().allocate(&agents, &c).unwrap();
        let equal = c.equal_split(2);
        for (i, u) in agents.iter().enumerate() {
            // SI within numerical tolerance.
            assert!(
                u.value(alloc.bundle(i)) >= u.value(&equal) * (1.0 - 1e-4),
                "agent {i} SI violated"
            );
            // EF within numerical tolerance.
            for j in 0..2 {
                assert!(
                    u.value(alloc.bundle(i)) >= u.value(alloc.bundle(j)) * (1.0 - 1e-4),
                    "agent {i} envies {j}"
                );
            }
        }
        assert!(alloc.is_exhaustive(&c, 1e-3));
    }

    #[test]
    fn fair_variant_matches_ref_on_paper_example() {
        let alloc = MaxWelfare::with_fairness()
            .allocate(&paper_agents(), &paper_capacity())
            .unwrap();
        assert!((alloc.bundle(0).get(0) - 18.0).abs() < 0.1, "{alloc:?}");
        assert!((alloc.bundle(1).get(1) - 8.0).abs() < 0.1, "{alloc:?}");
    }

    #[test]
    fn four_agents_solve() {
        let agents = vec![
            CobbDouglas::new(0.8, vec![0.7, 0.3]).unwrap(),
            CobbDouglas::new(1.1, vec![0.3, 0.7]).unwrap(),
            CobbDouglas::new(0.9, vec![0.5, 0.5]).unwrap(),
            CobbDouglas::new(1.3, vec![0.9, 0.1]).unwrap(),
        ];
        let c = paper_capacity();
        for mech in [MaxWelfare::with_fairness(), MaxWelfare::without_fairness()] {
            let alloc = mech.allocate(&agents, &c).unwrap();
            assert_eq!(alloc.num_agents(), 4);
            assert!(alloc.is_exhaustive(&c, 1e-3), "{}", mech.name());
        }
    }

    #[test]
    fn warm_started_allocation_agrees_with_cold() {
        // With fairness the mechanism solves its program; without, the
        // program it extends is solved directly.
        let agents = paper_agents();
        let c = paper_capacity();
        let nash = NashProgram::new(&agents, &c).unwrap();
        let (cold, hint) = nash.solve_warm(None).unwrap();
        let (rewarmed, _) = nash.solve_warm(Some(&hint)).unwrap();
        let mut pairs = vec![("nash program", cold, rewarmed)];
        let fair = MaxWelfare::with_fairness();
        let (cold, hint) = fair.allocate_warm(&agents, &c, None).unwrap();
        let hint = hint.expect("the fair variant solves a GP");
        let (rewarmed, next) = fair.allocate_warm(&agents, &c, Some(&hint)).unwrap();
        assert!(next.is_some());
        pairs.push(("with fairness", cold, rewarmed));
        for (label, cold, rewarmed) in pairs {
            for i in 0..2 {
                for r in 0..2 {
                    assert!(
                        (rewarmed.bundle(i).get(r) - cold.bundle(i).get(r)).abs() < 1e-3,
                        "{label} agent {i} resource {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn without_fairness_is_the_closed_form_and_returns_no_hint() {
        // Unnormalized elasticities: Nash shares are proportional to the
        // raw elasticities, and the closed form exhausts capacity.
        let agents = vec![
            CobbDouglas::new(2.0, vec![1.2, 0.8]).unwrap(),
            CobbDouglas::new(0.5, vec![0.1, 0.4]).unwrap(),
            CobbDouglas::new(1.0, vec![0.3, 0.0]).unwrap(),
        ];
        let c = paper_capacity();
        let (alloc, hint) = MaxWelfare::without_fairness()
            .allocate_warm(&agents, &c, None)
            .unwrap();
        assert!(hint.is_none());
        assert_eq!(alloc.bundle(0).get(0), 1.2 / 1.6 * 24.0);
        assert_eq!(alloc.bundle(2).get(1), 0.0);
        assert!(alloc.is_exhaustive(&c, 1e-15));
        // The GP it no longer runs lands on the same point.
        let (solved, _) = NashProgram::new(&agents[..2], &c)
            .unwrap()
            .solve_warm(None)
            .unwrap();
        let closed = MaxWelfare::without_fairness()
            .allocate(&agents[..2], &c)
            .unwrap();
        for i in 0..2 {
            for r in 0..2 {
                let (s, k) = (solved.bundle(i).get(r), closed.bundle(i).get(r));
                assert!((s / k - 1.0).abs() < 1e-4, "agent {i} resource {r}");
            }
        }
    }

    #[test]
    fn a_resource_nobody_values_is_split_equally() {
        let agents = vec![
            CobbDouglas::new(1.0, vec![1.0, 0.0]).unwrap(),
            CobbDouglas::new(1.0, vec![0.5, 0.0]).unwrap(),
        ];
        let alloc = MaxWelfare::without_fairness()
            .allocate(&agents, &paper_capacity())
            .unwrap();
        assert_eq!(alloc.bundle(0).get(1), 6.0);
        assert_eq!(alloc.bundle(1).get(1), 6.0);
        assert_eq!(alloc.bundle(0).get(0), 16.0);
    }

    #[test]
    fn stale_hint_shape_falls_back_to_cold_start() {
        // A hint recorded for a two-agent population is unusable once a
        // third agent joins: the warm path must fall back to the cold
        // start and still produce the cold answer, bit for bit.
        let c = paper_capacity();
        let (_, hint) = MaxWelfare::with_fairness()
            .allocate_warm(&paper_agents(), &c, None)
            .unwrap();
        let mut agents = paper_agents();
        agents.push(CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap());
        let cold = MaxWelfare::with_fairness().allocate(&agents, &c).unwrap();
        let (stale, _) = MaxWelfare::with_fairness()
            .allocate_warm(&agents, &c, hint.as_ref())
            .unwrap();
        for i in 0..3 {
            for r in 0..2 {
                assert_eq!(
                    stale.bundle(i).get(r).to_bits(),
                    cold.bundle(i).get(r).to_bits()
                );
            }
        }
    }

    #[test]
    fn names_distinguish_variants() {
        assert_ne!(
            MaxWelfare::with_fairness().name(),
            MaxWelfare::without_fairness().name()
        );
        assert!(MaxWelfare::with_fairness().fairness);
        assert!(!MaxWelfare::without_fairness().fairness);
    }
}

//! Geometric programming in standard form.
//!
//! A geometric program (GP) minimizes a posynomial subject to posynomial
//! inequality constraints `p_i(x) <= 1` over strictly positive variables.
//! With the substitution `x_j = exp(t_j)` every posynomial becomes a
//! log-sum-exp of affine functions and the program becomes convex; it is then
//! solved by the interior-point method in [`crate::barrier`].
//!
//! The REF paper's welfare mechanisms are all expressible as GPs:
//! Cobb-Douglas utilities are monomials, so Nash-welfare maximization,
//! max-min (equal slowdown) and the fairness constraints (SI, EF) are
//! monomial/posynomial constraints. See `ref-core`'s mechanism modules for
//! the formulations.

use crate::barrier::{self, BarrierOptions, SolveStats, WarmStart};
use crate::error::{Result, SolverError};
use crate::func::LogSumExp;

/// A monomial `c * prod_j x_j^{a_j}` with positive coefficient `c`.
///
/// Exponents may be any real numbers (negative exponents express ratios).
/// Only the non-zero exponents are stored: the REF mechanisms' monomials
/// touch a few of their `N * R` variables each.
///
/// # Examples
///
/// ```
/// use ref_solver::gp::Monomial;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 2 * x^0.6 * y^0.4
/// let m = Monomial::new(2.0, vec![0.6, 0.4])?;
/// assert!((m.eval(&[1.0, 1.0]) - 2.0).abs() < 1e-12);
/// // The same, naming only the variables that appear.
/// let n = Monomial::sparse(2.0, 4, &[(0, 0.6), (3, 0.4)])?;
/// assert!((n.eval(&[1.0, 7.0, 7.0, 1.0]) - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Monomial {
    coefficient: f64,
    dim: usize,
    /// `(variable, exponent)` pairs with non-zero exponents, as given: a
    /// variable named twice carries the sum (the log-space image merges
    /// them).
    exponents: Vec<(usize, f64)>,
}

impl Monomial {
    /// Creates `c * prod_j x_j^{a_j}` from one exponent per variable.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidArgument`] if `coefficient` is not
    /// strictly positive and finite, or any exponent is non-finite.
    pub fn new(coefficient: f64, exponents: Vec<f64>) -> Result<Monomial> {
        let sparse: Vec<(usize, f64)> = exponents.iter().copied().enumerate().collect();
        Monomial::sparse(coefficient, exponents.len(), &sparse)
    }

    /// Creates `c * prod x_j^{a_j}` over `dim` variables from `(j, a_j)`
    /// pairs; variables not named have exponent zero, and pairs naming the
    /// same variable add up.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidArgument`] if `coefficient` is not
    /// strictly positive and finite, an exponent is non-finite, or a
    /// variable index is `dim` or more.
    pub fn sparse(coefficient: f64, dim: usize, exponents: &[(usize, f64)]) -> Result<Monomial> {
        if !(coefficient > 0.0 && coefficient.is_finite()) {
            return Err(SolverError::InvalidArgument(format!(
                "monomial coefficient must be positive and finite, got {coefficient}"
            )));
        }
        if exponents.iter().any(|(_, e)| !e.is_finite()) {
            return Err(SolverError::InvalidArgument(
                "monomial exponents must be finite".to_string(),
            ));
        }
        if let Some((j, _)) = exponents.iter().find(|(j, _)| *j >= dim) {
            return Err(SolverError::InvalidArgument(format!(
                "variable index {j} out of range for {dim} variables"
            )));
        }
        Ok(Monomial {
            coefficient,
            dim,
            exponents: exponents
                .iter()
                .copied()
                .filter(|&(_, e)| e != 0.0)
                .collect(),
        })
    }

    /// Evaluates the monomial at strictly positive `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the number of variables.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        self.coefficient
            * self
                .exponents
                .iter()
                .map(|&(j, a)| x[j].powf(a))
                .product::<f64>()
    }

    /// The reciprocal monomial `1 / m`, itself a monomial.
    pub fn reciprocal(&self) -> Monomial {
        Monomial {
            coefficient: 1.0 / self.coefficient,
            dim: self.dim,
            exponents: self.exponents.iter().map(|&(j, e)| (j, -e)).collect(),
        }
    }
}

/// A posynomial: a sum of monomials over the same variables.
///
/// # Examples
///
/// ```
/// use ref_solver::gp::{Monomial, Posynomial};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Posynomial::from_monomials(vec![
///     Monomial::new(1.0, vec![1.0, 0.0])?,
///     Monomial::new(1.0, vec![0.0, 1.0])?,
/// ])?;
/// assert!((p.eval(&[2.0, 3.0]) - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Posynomial {
    terms: Vec<Monomial>,
}

impl Posynomial {
    /// Creates a posynomial from its monomial terms.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidArgument`] if `terms` is empty or the
    /// terms disagree on dimension.
    pub fn from_monomials(terms: Vec<Monomial>) -> Result<Posynomial> {
        if terms.is_empty() {
            return Err(SolverError::InvalidArgument(
                "posynomial needs at least one term".to_string(),
            ));
        }
        let n = terms[0].dim;
        if terms.iter().any(|t| t.dim != n) {
            return Err(SolverError::InvalidArgument(
                "posynomial terms must share a dimension".to_string(),
            ));
        }
        Ok(Posynomial { terms })
    }

    /// Number of variables.
    pub(crate) fn dim(&self) -> usize {
        self.terms[0].dim
    }

    /// Evaluates the posynomial at strictly positive `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the posynomial's dimension.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|t| t.eval(x)).sum()
    }

    /// Log-space image: with `x = e^t`, `log p(x)` is the log-sum-exp of
    /// the terms' `a . t + log c`.
    fn to_lse(&self) -> LogSumExp {
        LogSumExp::from_terms(
            self.dim(),
            self.terms
                .iter()
                .map(|m| (m.exponents.as_slice(), m.coefficient.ln())),
        )
        .expect("monomials hold finite in-range exponents and positive coefficients")
    }
}

impl From<Monomial> for Posynomial {
    fn from(m: Monomial) -> Posynomial {
        Posynomial { terms: vec![m] }
    }
}

/// A geometric program in standard form.
///
/// ```text
/// minimize    p_0(x)
/// subject to  p_i(x) <= 1,   i = 1..m
///             x > 0
/// ```
///
/// # Examples
///
/// Maximize `x y` subject to `x + y <= 2` (optimum `x = y = 1`): maximizing
/// a monomial is minimizing its reciprocal.
///
/// ```
/// use ref_solver::gp::{GeometricProgram, Monomial, Posynomial};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let xy = Monomial::new(1.0, vec![1.0, 1.0])?;
/// let mut gp = GeometricProgram::minimize(2, xy.reciprocal().into())?;
/// gp.add_constraint(Posynomial::from_monomials(vec![
///     Monomial::new(0.5, vec![1.0, 0.0])?,
///     Monomial::new(0.5, vec![0.0, 1.0])?,
/// ])?)?;
/// let sol = gp.solve(&[0.5, 0.5])?;
/// assert!((sol.x[0] - 1.0).abs() < 1e-3);
/// assert!((sol.x[1] - 1.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GeometricProgram {
    n: usize,
    objective: Posynomial,
    constraints: Vec<Posynomial>,
    options: BarrierOptions,
}

/// Solution of a geometric program.
#[derive(Debug, Clone, PartialEq)]
pub struct GpSolution {
    /// Optimal (strictly positive) variable values.
    pub x: Vec<f64>,
    /// Objective posynomial value at the optimum.
    pub objective_value: f64,
    /// Outer interior-point iterations used.
    pub outer_iterations: usize,
    /// Barrier path parameter at convergence; feed it back through
    /// [`GpWarmStart`] to warm-start a nearby re-solve.
    pub final_t: f64,
    /// Newton iterations spent, how many of them in phase I, and whether a
    /// warm-start hint produced the answer.
    pub stats: SolveStats,
}

/// Warm-start hint for [`GeometricProgram::solve_warm`]: the optimum of a
/// previous, nearby instance in the *original* (positive) variable space
/// plus the barrier path parameter it converged at.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GpWarmStart {
    /// Previous optimum (strictly positive, original space).
    pub x: Vec<f64>,
    /// `final_t` reported by the previous solve.
    pub t: f64,
    /// The work report of the solve this hint was taken from (all zero for
    /// a hint assembled by hand or from a cache). It rides along so callers
    /// that only see hints — [`solve_warm`](GeometricProgram::solve_warm)
    /// never reads it — can count iterations and abandoned warm starts.
    pub stats: SolveStats,
}

impl GpWarmStart {
    /// Extracts the warm-start hint from a solution.
    pub fn from_solution(sol: &GpSolution) -> GpWarmStart {
        GpWarmStart {
            x: sol.x.clone(),
            t: sol.final_t,
            stats: sol.stats,
        }
    }
}

impl GeometricProgram {
    /// Creates a GP minimizing `objective` over `n` positive variables.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if the objective dimension is
    /// not `n`.
    pub fn minimize(n: usize, objective: Posynomial) -> Result<GeometricProgram> {
        if objective.dim() != n {
            return Err(SolverError::ShapeMismatch(format!(
                "objective has dimension {}, expected {n}",
                objective.dim()
            )));
        }
        Ok(GeometricProgram {
            n,
            objective,
            constraints: Vec::new(),
            options: BarrierOptions::default(),
        })
    }

    /// Adds the constraint `p(x) <= 1`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if the constraint dimension
    /// differs from the program's.
    pub fn add_constraint(&mut self, p: Posynomial) -> Result<&mut GeometricProgram> {
        if p.dim() != self.n {
            return Err(SolverError::ShapeMismatch(format!(
                "constraint has dimension {}, expected {}",
                p.dim(),
                self.n
            )));
        }
        self.constraints.push(p);
        Ok(self)
    }

    /// Adds the monomial equality `m(x) = 1`, encoded as the relaxed band
    /// `1 - eps <= m(x) <= 1 + eps`.
    ///
    /// An exact equality has no strict interior, which a log-barrier method
    /// cannot center in; the relaxation perturbs the optimum by at most
    /// `O(eps)`, so `eps = 1e-6` is far below the solver's duality-gap
    /// tolerance.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidArgument`] unless `0 < eps < 1`, and
    /// [`SolverError::ShapeMismatch`] on dimension mismatch.
    pub fn add_monomial_equality_with_tolerance(
        &mut self,
        m: Monomial,
        eps: f64,
    ) -> Result<&mut GeometricProgram> {
        if !(eps > 0.0 && eps < 1.0) {
            return Err(SolverError::InvalidArgument(format!(
                "equality relaxation must be in (0, 1), got {eps}"
            )));
        }
        let upper = Monomial {
            coefficient: m.coefficient / (1.0 + eps),
            ..m.clone()
        };
        let mut lower = m.reciprocal();
        lower.coefficient *= 1.0 - eps;
        self.add_constraint(upper.into())?;
        self.add_constraint(lower.into())?;
        Ok(self)
    }

    /// Overrides the interior-point options.
    pub fn set_options(&mut self, options: BarrierOptions) -> &mut GeometricProgram {
        self.options = options;
        self
    }

    /// Solves the program starting from the strictly positive point `x0`.
    ///
    /// `x0` need not be feasible (a phase-I solve runs automatically when it
    /// is not strictly feasible) but every entry must be positive because
    /// the solve happens in log space.
    ///
    /// # Errors
    ///
    /// - [`SolverError::InvalidArgument`] if `x0` has the wrong length or a
    ///   non-positive entry.
    /// - [`SolverError::Infeasible`] if no strictly feasible point exists.
    /// - Errors propagated from the interior-point method.
    pub fn solve(&self, x0: &[f64]) -> Result<GpSolution> {
        self.solve_warm(x0, None)
    }

    /// As [`solve`](GeometricProgram::solve), seeded from a previous
    /// solution of a nearby instance when `warm` is given.
    ///
    /// A usable hint must match the problem's variable count, be strictly
    /// positive and finite, and carry a finite path parameter at or above
    /// the configured `t0` — anything else (a shape change, a poisoned
    /// cache entry) makes the hint *ignored*, not an error: the solve is
    /// the cold solve from `x0`, bit for bit. A usable hint re-enters the
    /// central path where `barrier::minimize_warm` reads off that it can;
    /// if the attempt fails for any reason the cold path runs instead and
    /// [`GpSolution::stats`] reports the fallback, so `solve_warm` never
    /// errors where `solve` would succeed.
    ///
    /// # Errors
    ///
    /// As [`solve`](GeometricProgram::solve).
    pub fn solve_warm(&self, x0: &[f64], warm: Option<&GpWarmStart>) -> Result<GpSolution> {
        if x0.len() != self.n {
            return Err(SolverError::InvalidArgument(format!(
                "start point has length {}, expected {}",
                x0.len(),
                self.n
            )));
        }
        if x0.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
            return Err(SolverError::InvalidArgument(
                "start point must be strictly positive".to_string(),
            ));
        }
        let objective = self.objective.to_lse();
        let constraints: Vec<LogSumExp> = self.constraints.iter().map(|c| c.to_lse()).collect();
        let log = |x: &[f64]| -> Vec<f64> { x.iter().map(|v| v.ln()).collect() };
        let hint = warm
            .filter(|w| self.warm_start_usable(w))
            .map(|w| (log(&w.x), w.t));
        let r = barrier::minimize_warm(
            &objective,
            &constraints,
            &log(x0),
            &self.options,
            hint.as_ref().map(|(x, t)| WarmStart { x, t: *t }),
        )?;
        let x: Vec<f64> = r.x.iter().map(|t| t.exp()).collect();
        let objective_value = self.objective.eval(&x);
        Ok(GpSolution {
            x,
            objective_value,
            outer_iterations: r.outer_iterations,
            final_t: r.final_t,
            stats: r.stats,
        })
    }

    /// Whether a warm-start hint is safe to seed the barrier method with.
    fn warm_start_usable(&self, w: &GpWarmStart) -> bool {
        w.x.len() == self.n
            && w.x.iter().all(|&v| v > 0.0 && v.is_finite())
            && w.t.is_finite()
            && w.t >= self.options.t0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::WarmOutcome;

    #[test]
    fn monomial_validation() {
        assert!(Monomial::new(0.0, vec![1.0]).is_err());
        assert!(Monomial::new(-1.0, vec![1.0]).is_err());
        assert!(Monomial::new(1.0, vec![f64::NAN]).is_err());
        assert!(Monomial::new(2.5, vec![0.3, -0.7]).is_ok());
        assert!(Monomial::sparse(1.0, 2, &[(2, 1.0)]).is_err());
    }

    #[test]
    fn monomial_eval_and_algebra() {
        let m = Monomial::new(2.0, vec![0.5, -1.0]).unwrap();
        assert!((m.eval(&[4.0, 2.0]) - 2.0).abs() < 1e-12);
        let r = m.reciprocal();
        assert!((m.eval(&[4.0, 2.0]) * r.eval(&[4.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn posynomial_validation() {
        assert!(Posynomial::from_monomials(vec![]).is_err());
        let mismatch = Posynomial::from_monomials(vec![
            Monomial::new(1.0, vec![1.0]).unwrap(),
            Monomial::new(1.0, vec![1.0, 2.0]).unwrap(),
        ]);
        assert!(mismatch.is_err());
    }

    #[test]
    fn maximize_product_under_budget() {
        // -> x = y = 1.
        let sol = product_under_budget().solve(&[0.2, 1.5]).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-3, "{:?}", sol.x);
        assert!((sol.x[1] - 1.0).abs() < 1e-3, "{:?}", sol.x);
        assert!((sol.objective_value - 1.0).abs() < 1e-3);
    }

    #[test]
    fn weighted_nash_bargaining_matches_closed_form() {
        // max x^0.6 y^0.4 * u^0.2 v^0.8 with x + u <= 24, y + v <= 12
        // (the paper's running example). Closed form: x = 18, y = 4,
        // u = 6, v = 8. Variables ordered (x, y, u, v).
        let welfare = Monomial::new(1.0, vec![0.6, 0.4, 0.2, 0.8]).unwrap();
        let mut gp = GeometricProgram::minimize(4, welfare.reciprocal().into()).unwrap();
        gp.add_constraint(
            Posynomial::from_monomials(vec![
                Monomial::new(1.0 / 24.0, vec![1.0, 0.0, 0.0, 0.0]).unwrap(),
                Monomial::new(1.0 / 24.0, vec![0.0, 0.0, 1.0, 0.0]).unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        gp.add_constraint(
            Posynomial::from_monomials(vec![
                Monomial::new(1.0 / 12.0, vec![0.0, 1.0, 0.0, 0.0]).unwrap(),
                Monomial::new(1.0 / 12.0, vec![0.0, 0.0, 0.0, 1.0]).unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        let sol = gp.solve(&[6.0, 3.0, 6.0, 3.0]).unwrap();
        assert!((sol.x[0] - 18.0).abs() < 0.02, "{:?}", sol.x);
        assert!((sol.x[1] - 4.0).abs() < 0.01, "{:?}", sol.x);
        assert!((sol.x[2] - 6.0).abs() < 0.02, "{:?}", sol.x);
        assert!((sol.x[3] - 8.0).abs() < 0.01, "{:?}", sol.x);
    }

    #[test]
    fn monomial_equality_pins_value() {
        // minimize x subject to x y = 4, y <= 2 -> y = 2, x = 2.
        let x = Monomial::sparse(1.0, 2, &[(0, 1.0)]).unwrap();
        let mut gp = GeometricProgram::minimize(2, x.into()).unwrap();
        gp.add_monomial_equality_with_tolerance(Monomial::new(0.25, vec![1.0, 1.0]).unwrap(), 1e-6)
            .unwrap();
        gp.add_constraint(Monomial::new(0.5, vec![0.0, 1.0]).unwrap().into())
            .unwrap();
        let sol = gp.solve(&[4.0, 1.0]).unwrap();
        assert!((sol.x[1] - 2.0).abs() < 1e-2, "{:?}", sol.x);
        assert!((sol.x[0] - 2.0).abs() < 1e-2, "{:?}", sol.x);
    }

    /// max x y s.t. x + y <= 2.
    fn product_under_budget() -> GeometricProgram {
        let xy = Monomial::new(1.0, vec![1.0, 1.0]).unwrap();
        let mut gp = GeometricProgram::minimize(2, xy.reciprocal().into()).unwrap();
        gp.add_constraint(
            Posynomial::from_monomials(vec![
                Monomial::new(0.5, vec![1.0, 0.0]).unwrap(),
                Monomial::new(0.5, vec![0.0, 1.0]).unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        gp
    }

    #[test]
    fn warm_solve_agrees_with_cold_and_converges_faster() {
        let gp = product_under_budget();
        let cold = gp.solve(&[0.2, 1.5]).unwrap();
        assert_eq!(cold.stats.warm, WarmOutcome::Cold);
        assert_eq!(cold.stats.phase_one_iterations, 0);
        let warm = GpWarmStart::from_solution(&cold);
        assert_eq!(warm.stats, cold.stats);
        let rewarmed = gp.solve_warm(&[0.2, 1.5], Some(&warm)).unwrap();
        assert_eq!(rewarmed.stats.warm, WarmOutcome::Used);
        assert!(rewarmed.outer_iterations < cold.outer_iterations);
        assert!(rewarmed.stats.newton_iterations < cold.stats.newton_iterations);
        assert_eq!(rewarmed.final_t, cold.final_t);
        for (w, c) in rewarmed.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-9, "{w} vs {c}");
        }
    }

    #[test]
    fn boundary_start_pays_for_phase_one_and_reports_it() {
        let gp = product_under_budget();
        // x + y = 2 exactly: feasible, not strictly.
        let edge = gp.solve(&[0.5, 1.5]).unwrap();
        assert!(edge.stats.phase_one_iterations > 0);
        let inside = gp.solve(&[0.25, 0.75]).unwrap();
        assert_eq!(inside.stats.phase_one_iterations, 0);
        assert!(inside.stats.newton_iterations < edge.stats.newton_iterations);
    }

    #[test]
    fn sparse_and_dense_monomials_are_the_same_function() {
        let dense = Monomial::new(2.0, vec![0.0, 0.5, 0.0, -1.0]).unwrap();
        // Any order, a variable named twice, an explicit zero.
        let sparse =
            Monomial::sparse(2.0, 4, &[(3, -0.25), (1, 0.5), (3, -0.75), (2, 0.0)]).unwrap();
        assert_eq!(sparse.dim, 4);
        let x = [1.3, 0.7, 2.9, 1.9];
        assert!((dense.eval(&x) - sparse.eval(&x)).abs() < 1e-15);
        assert_eq!(
            Posynomial::from(dense).to_lse(),
            Posynomial::from(sparse).to_lse()
        );
        assert!(Monomial::sparse(1.0, 2, &[(2, 1.0)]).is_err());
        assert!(Monomial::sparse(1.0, 2, &[(0, f64::INFINITY)]).is_err());
    }

    #[test]
    fn unusable_warm_hints_fall_back_to_cold_path() {
        let gp = product_under_budget();
        let cold = gp.solve(&[0.2, 1.5]).unwrap();
        let bad_hints = [
            GpWarmStart {
                x: vec![1.0],
                t: 1e7,
                ..GpWarmStart::default()
            }, // wrong shape
            GpWarmStart {
                x: vec![1.0, f64::NAN],
                t: 1e7,
                ..GpWarmStart::default()
            }, // non-finite point
            GpWarmStart {
                x: vec![1.0, -1.0],
                t: 1e7,
                ..GpWarmStart::default()
            }, // non-positive point
            GpWarmStart {
                x: vec![1.0, 1.0],
                t: f64::NAN,
                ..GpWarmStart::default()
            }, // non-finite t
            GpWarmStart {
                x: vec![1.0, 1.0],
                t: 0.5,
                ..GpWarmStart::default()
            }, // t below t0
        ];
        for hint in &bad_hints {
            let sol = gp.solve_warm(&[0.2, 1.5], Some(hint)).unwrap();
            // The hint is rejected up front, so the solve is the cold solve.
            assert_eq!(sol, cold, "hint {hint:?} was not ignored");
        }
    }

    #[test]
    fn solve_delegates_to_cold_warm_path() {
        // `solve` and `solve_warm(.., None)` must be the same computation.
        let x = Monomial::sparse(1.0, 1, &[(0, 1.0)]).unwrap();
        let mut gp = GeometricProgram::minimize(1, x.into()).unwrap();
        gp.add_constraint(Monomial::new(0.5, vec![-1.0]).unwrap().into())
            .unwrap();
        let a = gp.solve(&[1.0]).unwrap();
        let b = gp.solve_warm(&[1.0], None).unwrap();
        assert_eq!(a.x, b.x);
        assert_eq!(a.final_t, b.final_t);
    }

    #[test]
    fn rejects_bad_start_points() {
        let gp =
            GeometricProgram::minimize(1, Monomial::new(1.0, vec![1.0]).unwrap().into()).unwrap();
        assert!(gp.solve(&[]).is_err());
        assert!(gp.solve(&[-1.0]).is_err());
        assert!(gp.solve(&[0.0]).is_err());
    }

    #[test]
    fn infeasible_gp_detected() {
        // x <= 1/2 and 1/x <= 1/2 (i.e. x >= 2) conflict.
        let x = Monomial::sparse(1.0, 1, &[(0, 1.0)]).unwrap();
        let mut gp = GeometricProgram::minimize(1, x.clone().into()).unwrap();
        gp.add_constraint(Monomial::new(2.0, vec![1.0]).unwrap().into())
            .unwrap();
        gp.add_constraint(Monomial::new(2.0, vec![-1.0]).unwrap().into())
            .unwrap();
        assert!(matches!(gp.solve(&[1.0]), Err(SolverError::Infeasible)));
    }

    #[test]
    fn dimension_checks() {
        let bad = GeometricProgram::minimize(2, Monomial::new(1.0, vec![1.0]).unwrap().into());
        assert!(bad.is_err());
        let mut gp =
            GeometricProgram::minimize(1, Monomial::new(1.0, vec![1.0]).unwrap().into()).unwrap();
        assert!(gp
            .add_constraint(Monomial::new(1.0, vec![1.0, 1.0]).unwrap().into())
            .is_err());
    }
}

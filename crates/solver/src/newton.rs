//! Damped Newton minimization of smooth convex functions.
//!
//! Used as the inner loop of the barrier method ([`crate::barrier`]). Each
//! iteration solves `H d = -g` and backtracks until the Armijo condition
//! holds. Convergence is declared when the Newton decrement
//! `lambda^2 = -g . d` falls below tolerance.
//!
//! The Hessian arrives as `H = S + U diag(c) U^T` ([`Hessian`]): `S`
//! sparse in envelope storage, `U` a few columns. Only `S` is factored
//! ([`Cholesky`], in its envelope); the rest enters through the
//! capacitance matrix `M = I + C U^T Z` with `Z = S^-1 U`,
//! `H^-1 b = S^-1 b - Z M^-1 C U^T S^-1 b` — the form of the
//! Sherman-Morrison-Woodbury identity that never divides by a coefficient
//! `c_j`, which may be zero or negative. With no columns this is a plain
//! Cholesky solve. When `S` loses definiteness to round-off, or the
//! direction that comes out is not a finite descent direction (`M` is not
//! positive definite by construction the way `L L^T` is), the system is
//! solved again with a growing Levenberg ridge on `S`'s diagonal.

use crate::cholesky::Cholesky;
use crate::error::{Result, SolverError};
use crate::func::{Hessian, Objective};
use crate::lu::Lu;
use crate::matrix::Matrix;
use crate::tol;
use crate::vec_ops;

/// Options controlling the Newton iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonOptions {
    /// Stop when the Newton decrement `lambda^2 / 2` falls below this value.
    pub tolerance: f64,
    /// Maximum number of Newton iterations.
    pub max_iterations: usize,
    /// Armijo sufficient-decrease constant in `(0, 0.5)`.
    pub armijo: f64,
    /// Backtracking shrink factor in `(0, 1)`.
    pub backtrack: f64,
}

impl Default for NewtonOptions {
    fn default() -> NewtonOptions {
        NewtonOptions {
            tolerance: 1e-10,
            max_iterations: 200,
            armijo: 0.25,
            backtrack: 0.5,
        }
    }
}

/// The Newton system `H = S + U diag(c) U^T` as the objective wrote it, and
/// its factorization.
#[derive(Debug)]
struct System {
    hess: Hessian,
    /// Factor of `S`, plus the ridge if one was needed.
    factor: Cholesky,
    /// `Z = S^-1 U`, one dense column of length `n` after the other.
    z: Vec<f64>,
    /// The factored capacitance matrix `M = I + C U^T Z`, while `U` has
    /// columns.
    capacitance: Option<Lu>,
}

impl System {
    fn new(hess: Hessian) -> System {
        let (n, k) = (hess.dim(), hess.rank());
        System {
            hess,
            factor: Cholesky::with_profile(&[]),
            z: vec![0.0; n * k],
            capacitance: None,
        }
    }

    /// Factors `S + tau I`, then forms `Z` and factors `M`.
    fn factor(&mut self, tau: f64) -> Result<()> {
        self.factor.refactor(self.hess.s(), tau)?;
        let (n, k) = (self.hess.dim(), self.hess.rank());
        if k == 0 {
            return Ok(());
        }
        for (j, z) in self.z.chunks_exact_mut(n).enumerate() {
            let (_, rows, vals) = self.hess.column(j);
            z.fill(0.0);
            for (&r, &v) in rows.iter().zip(vals) {
                z[r] = v;
            }
            self.factor.solve_in_place(z)?;
        }
        let m = Matrix::from_fn(k, k, |i, j| {
            let identity = if i == j { 1.0 } else { 0.0 };
            identity + self.hess.column_dot(i, &self.z[j * n..(j + 1) * n])
        });
        self.capacitance = Some(Lu::new(&m)?);
        Ok(())
    }

    /// `out = H^-1 v` for the `H` last factored.
    fn solve(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        self.factor.solve_into(v, out)?;
        let Some(lu) = &self.capacitance else {
            return Ok(());
        };
        let cu: Vec<f64> = (0..self.hess.rank())
            .map(|j| self.hess.column_dot(j, out))
            .collect();
        let w = lu.solve(&cu)?;
        for (wj, z) in w.iter().zip(self.z.chunks_exact(out.len())) {
            vec_ops::axpy(-wj, z, out);
        }
        Ok(())
    }
}

/// Buffers one Newton loop needs, sized for one objective: the barrier
/// method allocates them once per solve and every centering step reuses
/// them, so an iterate allocates nothing beyond the `k x k` capacitance
/// factor.
#[derive(Debug)]
pub(crate) struct Workspace {
    /// Gradient at the point of the last [`newton_step`](Workspace::newton_step).
    pub(crate) grad: Vec<f64>,
    system: System,
    /// The Newton step `-H^-1 grad` there.
    pub(crate) step: Vec<f64>,
    candidate: Vec<f64>,
}

impl Workspace {
    /// Buffers for minimizing `f`, whose Hessian structure is read here,
    /// once.
    pub(crate) fn new(f: &dyn Objective) -> Workspace {
        let n = f.dim();
        Workspace {
            grad: vec![0.0; n],
            system: System::new(f.hessian()),
            step: vec![0.0; n],
            candidate: vec![0.0; n],
        }
    }

    /// Assembles and solves the Newton system of `f` at `x`, filling
    /// `grad` and `step`, and returns the slope `grad . step` along the
    /// step: finite and negative — a descent direction — or zero where the
    /// gradient is exactly zero. When `S` is not numerically positive
    /// definite, or the direction that comes out is not such a step, the
    /// system is solved again with a growing ridge on `S`'s diagonal.
    ///
    /// # Errors
    ///
    /// [`SolverError::NonFinite`] for a non-finite gradient or Hessian;
    /// [`SolverError::NotPositiveDefinite`] (a finite direction, never a
    /// descent direction) or `NonFinite("newton step")` when no ridge of
    /// the schedule in [`crate::tol`] repairs the system.
    pub(crate) fn newton_step(&mut self, f: &mut dyn Objective, x: &[f64]) -> Result<f64> {
        self.system.hess.clear();
        f.eval(x, &mut self.grad, &mut self.system.hess);
        if !vec_ops::all_finite(&self.grad) {
            return Err(SolverError::NonFinite("gradient".to_string()));
        }
        // The negated gradient borrows the candidate buffer, which is idle
        // until the line search.
        for (n, g) in self.candidate.iter_mut().zip(&self.grad) {
            *n = -g;
        }
        let stationary = self.grad.iter().all(|&g| g == 0.0);
        let mut failure = SolverError::NotPositiveDefinite;
        let mut tau = 0.0;
        for _ in 0..=tol::RIDGE_RETRIES {
            match self.system.factor(tau) {
                Ok(()) => {
                    self.system.solve(&self.candidate, &mut self.step)?;
                    let gd = vec_ops::dot(&self.grad, &self.step);
                    if (gd < 0.0 && gd.is_finite()) || (gd == 0.0 && stationary) {
                        return Ok(gd);
                    }
                    failure = if gd.is_finite() {
                        SolverError::NotPositiveDefinite
                    } else {
                        SolverError::NonFinite("newton step".to_string())
                    };
                }
                Err(e @ (SolverError::NotPositiveDefinite | SolverError::Singular)) => failure = e,
                Err(e) => return Err(e),
            }
            tau = if tau == 0.0 {
                tol::initial_ridge(self.system.hess.s().max_abs())
            } else {
                tau * tol::RIDGE_GROWTH
            };
        }
        Err(failure)
    }

    /// `H^-1 v` for the (possibly ridged) Hessian
    /// [`newton_step`](Workspace::newton_step) last factored.
    pub(crate) fn solve_factored(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        self.system.solve(v, out)
    }
}

/// Minimizes a smooth convex function with damped Newton steps, in place:
/// `x` is the start and ends as the minimizer, the return value is the
/// objective there. `iterations` is incremented once per Newton system
/// solved, also when the call ends in an error.
///
/// The objective may return `f64::INFINITY` outside its domain (e.g. a
/// log-barrier); the line search rejects such points, so iterates remain in
/// the domain provided `x` starts there.
///
/// # Errors
///
/// - [`SolverError::InvalidArgument`] if `x` has the wrong dimension or an
///   infinite starting value.
/// - [`SolverError::MaxIterationsExceeded`] if the decrement never reaches
///   tolerance.
/// - [`SolverError::NonFinite`] if derivatives become non-finite.
pub(crate) fn minimize_in(
    f: &mut dyn Objective,
    x: &mut Vec<f64>,
    opts: &NewtonOptions,
    ws: &mut Workspace,
    iterations: &mut usize,
) -> Result<f64> {
    if x.len() != f.dim() {
        return Err(SolverError::InvalidArgument(format!(
            "start point has dimension {}, objective expects {}",
            x.len(),
            f.dim()
        )));
    }
    let mut fx = f.value(x);
    if !fx.is_finite() {
        return Err(SolverError::InvalidArgument(
            "starting point is outside the objective's domain".to_string(),
        ));
    }
    let mut stalled = 0_u32;
    for _ in 0..opts.max_iterations {
        *iterations += 1;
        let gd = ws.newton_step(f, x)?;
        if -gd / 2.0 <= opts.tolerance {
            return Ok(fx);
        }
        // Backtracking line search with domain guard.
        let mut t = 1.0;
        let mut accepted = false;
        for _ in 0..80 {
            for ((c, xi), d) in ws.candidate.iter_mut().zip(x.iter()).zip(&ws.step) {
                *c = xi + t * d;
            }
            let fc = f.value(&ws.candidate);
            if fc.is_finite() && fc <= fx + opts.armijo * t * gd {
                // Track progress relative to the function's scale; once
                // decreases fall below round-off several times in a row we
                // are at the arithmetic floor.
                if (fx - fc).abs() <= 1e-13 * (1.0 + fx.abs()) {
                    stalled += 1;
                } else {
                    stalled = 0;
                }
                std::mem::swap(x, &mut ws.candidate);
                fx = fc;
                accepted = true;
                break;
            }
            t *= opts.backtrack;
        }
        // Either the decreases sit at round-off, or the step collapsed to
        // nothing: we are as converged as arithmetic permits.
        if stalled >= 3 || !accepted {
            return Ok(fx);
        }
    }
    Err(SolverError::MaxIterationsExceeded {
        iterations: opts.max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::dense::Quadratic;

    /// Outcome of a Newton minimization.
    #[derive(Debug, Clone, PartialEq)]
    struct NewtonResult {
        /// The final iterate.
        x: Vec<f64>,
        /// Objective value at the final iterate.
        value: f64,
        /// Number of Newton systems assembled and solved, the one whose
        /// decrement met the tolerance included.
        iterations: usize,
    }

    /// [`minimize_in`] from `x0`.
    fn minimize(f: &mut dyn Objective, x0: &[f64], opts: &NewtonOptions) -> Result<NewtonResult> {
        let mut x = x0.to_vec();
        let mut ws = Workspace::new(&*f);
        let mut iterations = 0;
        let value = minimize_in(f, &mut x, opts, &mut ws, &mut iterations)?;
        Ok(NewtonResult {
            x,
            value,
            iterations,
        })
    }

    #[test]
    fn quadratic_converges_in_one_step() {
        let q = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let mut f = Quadratic::new(q, vec![1.0, -2.0]);
        let r = minimize(&mut f, &[5.0, -5.0], &NewtonOptions::default()).unwrap();
        // Optimum solves Qx = -c.
        let mut g = vec![0.0; 2];
        let mut h = f.hessian();
        f.eval(&r.x, &mut g, &mut h);
        assert!(vec_ops::norm_inf(&g) < 1e-8);
        // One step, and the system that found the decrement at zero.
        assert_eq!(r.iterations, 2);
    }

    #[test]
    fn separable_quadratic_lands_on_its_minimizer() {
        let q = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]).unwrap();
        let mut f = Quadratic::new(q, vec![-2.0, -4.0]);
        let r = minimize(&mut f, &[0.0, 0.0], &NewtonOptions::default()).unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-8);
        assert!((r.x[1] - 2.0).abs() < 1e-8);
    }

    /// `log(e^x + e^-x + e^y + e^-y)` written out by hand.
    struct Cosh2;

    impl Objective for Cosh2 {
        fn dim(&self) -> usize {
            2
        }
        fn value(&mut self, x: &[f64]) -> f64 {
            (2.0 * x[0].cosh() + 2.0 * x[1].cosh()).ln()
        }
        fn eval(&mut self, x: &[f64], grad: &mut [f64], hess: &mut Hessian) -> f64 {
            let s = 2.0 * x[0].cosh() + 2.0 * x[1].cosh();
            for i in 0..2 {
                grad[i] = 2.0 * x[i].sinh() / s;
            }
            for i in 0..2 {
                for j in 0..=i {
                    let own = if i == j { 2.0 * x[i].cosh() / s } else { 0.0 };
                    hess.add(i, j, own - grad[i] * grad[j]);
                }
            }
            s.ln()
        }
    }

    #[test]
    fn minimizes_log_sum_exp() {
        let r = minimize(&mut Cosh2, &[2.0, -3.0], &NewtonOptions::default()).unwrap();
        assert!(vec_ops::norm_inf(&r.x) < 1e-6);
        assert!((r.value - 4.0_f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn rejects_wrong_dimension() {
        let mut f = Quadratic::new(Matrix::identity(2), vec![0.0, 0.0]);
        assert!(matches!(
            minimize(&mut f, &[0.0], &NewtonOptions::default()),
            Err(SolverError::InvalidArgument(_))
        ));
    }

    #[test]
    fn rejects_infeasible_start() {
        // A barrier-like objective that is infinite everywhere except near 0.
        struct Barrier;
        impl Objective for Barrier {
            fn dim(&self) -> usize {
                1
            }
            fn value(&mut self, x: &[f64]) -> f64 {
                if x[0].abs() < 1.0 {
                    -(1.0 - x[0] * x[0]).ln()
                } else {
                    f64::INFINITY
                }
            }
            fn eval(&mut self, x: &[f64], grad: &mut [f64], hess: &mut Hessian) -> f64 {
                let d = 1.0 - x[0] * x[0];
                grad[0] = 2.0 * x[0] / d;
                hess.add(0, 0, (2.0 * d + 4.0 * x[0] * x[0]) / (d * d));
                -d.ln()
            }
        }
        assert!(matches!(
            minimize(&mut Barrier, &[5.0], &NewtonOptions::default()),
            Err(SolverError::InvalidArgument(_))
        ));
        // Feasible start converges to the unconstrained minimum at 0.
        let r = minimize(&mut Barrier, &[0.9], &NewtonOptions::default()).unwrap();
        assert!(r.x[0].abs() < 1e-6);
    }

    #[test]
    fn respects_iteration_limit() {
        let q = Matrix::identity(2);
        let mut f = Quadratic::new(q, vec![1.0, 1.0]);
        let opts = NewtonOptions {
            max_iterations: 0,
            ..NewtonOptions::default()
        };
        assert!(matches!(
            minimize(&mut f, &[10.0, 10.0], &opts),
            Err(SolverError::MaxIterationsExceeded { .. })
        ));
    }

    #[test]
    fn iterations_are_counted_across_calls_and_on_failure() {
        let mut f = Quadratic::new(Matrix::identity(2), vec![1.0, 1.0]);
        let mut ws = Workspace::new(&f);
        let mut x = vec![10.0, 10.0];
        let mut iterations = 0;
        let one = NewtonOptions {
            max_iterations: 1,
            ..NewtonOptions::default()
        };
        // The single permitted system takes the step but cannot confirm it.
        assert!(minimize_in(&mut f, &mut x, &one, &mut ws, &mut iterations).is_err());
        assert_eq!(iterations, 1);
        minimize_in(
            &mut f,
            &mut x,
            &NewtonOptions::default(),
            &mut ws,
            &mut iterations,
        )
        .unwrap();
        assert_eq!(iterations, 2);
        assert!((x[0] + 1.0).abs() < 1e-12 && (x[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_singular_hessian_is_solved_with_a_ridge() {
        // Q = [[1, 1], [1, 1]] is only semidefinite: every x with
        // x0 + x1 = 2 minimizes, and the ridge picks the symmetric one.
        let q = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let mut f = Quadratic::new(q, vec![-2.0, -2.0]);
        let r = minimize(&mut f, &[0.0, 0.0], &NewtonOptions::default()).unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-5 && (r.x[1] - 1.0).abs() < 1e-5);
    }

    /// `|x|^2 / 2` over two variables, whose `eval` reports the Hessian as
    /// `I + c e0 e0^T` with the rank-one term kept apart: what a
    /// low-rank correction that has lost its definiteness looks like.
    struct Misreported {
        c: f64,
    }

    impl Objective for Misreported {
        fn dim(&self) -> usize {
            2
        }
        fn value(&mut self, x: &[f64]) -> f64 {
            0.5 * vec_ops::dot(x, x)
        }
        fn hessian(&self) -> Hessian {
            Hessian::new(vec![0, 1], [&[0][..]])
        }
        fn eval(&mut self, x: &[f64], grad: &mut [f64], hess: &mut Hessian) -> f64 {
            grad.copy_from_slice(x);
            hess.add(0, 0, 1.0);
            hess.add(1, 1, 1.0);
            hess.set_column(0, self.c, |_| 1.0);
            self.value(x)
        }
    }

    #[test]
    fn a_non_descent_direction_is_re_solved_with_a_ridge_not_reported_as_convergence() {
        // H = diag(-2, 1) at (1, 0): the Woodbury step points uphill, and
        // a negative decrement used to pass the convergence test. A ridge
        // of 10 on S makes it a descent direction.
        let mut f = Misreported { c: -3.0 };
        let mut ws = Workspace::new(&f);
        ws.newton_step(&mut f, &[1.0, 0.0]).unwrap();
        assert!((ws.step[0] + 1.0 / 8.0).abs() < 1e-12, "{:?}", ws.step);
        let r = minimize(&mut f, &[1.0, 0.0], &NewtonOptions::default()).unwrap();
        assert!(r.x[0].abs() < 1e-4 && r.iterations > 2, "{r:?}");
    }

    #[test]
    fn a_direction_no_ridge_repairs_is_an_error_never_convergence() {
        // Finite, but uphill under every ridge of the schedule.
        let mut hopeless = Misreported { c: -1e40 };
        assert_eq!(
            minimize(&mut hopeless, &[1.0, 0.0], &NewtonOptions::default()),
            Err(SolverError::NotPositiveDefinite)
        );
        // A non-finite coefficient reaches the capacitance matrix.
        let mut poisoned = Misreported { c: f64::NAN };
        assert!(matches!(
            minimize(&mut poisoned, &[1.0, 0.0], &NewtonOptions::default()),
            Err(SolverError::NonFinite(_))
        ));

        /// Finite derivatives whose Newton step overflows: `g . d` is
        /// infinite, every Armijo test fails, and the line search giving
        /// up used to be read as "converged".
        struct Overflowing;
        impl Objective for Overflowing {
            fn dim(&self) -> usize {
                2
            }
            fn value(&mut self, _x: &[f64]) -> f64 {
                0.0
            }
            fn eval(&mut self, _x: &[f64], grad: &mut [f64], hess: &mut Hessian) -> f64 {
                grad.fill(1e308);
                hess.add(0, 0, 1e-300);
                hess.add(1, 1, 1e-300);
                0.0
            }
        }
        assert_eq!(
            minimize(&mut Overflowing, &[0.0, 0.0], &NewtonOptions::default()),
            Err(SolverError::NonFinite("newton step".to_string()))
        );
    }
}

//! Damped Newton minimization of smooth convex functions.
//!
//! Used as the inner loop of the barrier method ([`crate::barrier`]). Each
//! iteration solves `H d = -g` (with a Levenberg ridge when `H` loses
//! definiteness to round-off) and backtracks until the Armijo condition
//! holds. Convergence is declared when the Newton decrement
//! `lambda^2 = -g . d` falls below tolerance.

use crate::cholesky::{solve_regularized_into, Cholesky};
use crate::error::{Result, SolverError};
use crate::func::Objective;
use crate::matrix::Matrix;
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

/// Outcome of a Newton minimization.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonResult {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Objective value at the final iterate.
    pub value: f64,
    /// Number of Newton systems assembled and solved, the one whose
    /// decrement met the tolerance included.
    pub iterations: usize,
}

/// Buffers one Newton loop needs, sized for `n` variables: the barrier
/// method allocates them once per solve and every centering step reuses
/// them, so an iterate costs no allocation.
#[derive(Debug)]
pub(crate) struct Workspace {
    /// Gradient at the point of the last [`newton_step`](Workspace::newton_step).
    pub(crate) grad: Vec<f64>,
    hess: Matrix,
    factor: Cholesky,
    /// The Newton step `-H^-1 grad` there.
    pub(crate) step: Vec<f64>,
    candidate: Vec<f64>,
}

impl Workspace {
    pub(crate) fn new(n: usize) -> Workspace {
        Workspace {
            grad: vec![0.0; n],
            hess: Matrix::zeros(n, n),
            factor: Cholesky::with_dim(n),
            step: vec![0.0; n],
            candidate: vec![0.0; n],
        }
    }

    /// Assembles and solves the Newton system of `f` at `x`, filling
    /// `grad` and `step`.
    pub(crate) fn newton_step(&mut self, f: &mut dyn Objective, x: &[f64]) -> Result<()> {
        f.eval(x, &mut self.grad, &mut self.hess);
        if !vec_ops::all_finite(&self.grad) {
            return Err(SolverError::NonFinite("gradient".to_string()));
        }
        if !self.hess.is_finite() {
            return Err(SolverError::NonFinite("hessian".to_string()));
        }
        // The negated gradient borrows the candidate buffer, which is idle
        // until the line search.
        for (n, g) in self.candidate.iter_mut().zip(&self.grad) {
            *n = -g;
        }
        solve_regularized_into(
            &mut self.hess,
            &self.candidate,
            &mut self.factor,
            &mut self.step,
        )
    }

    /// `H^-1 v` for the (possibly ridged) Hessian
    /// [`newton_step`](Workspace::newton_step) last factored.
    pub(crate) fn solve_factored(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        self.factor.solve_into(v, out)
    }
}

/// Minimizes a smooth convex function with damped Newton steps.
///
/// The objective may return `f64::INFINITY` outside its domain (e.g. a
/// log-barrier); the line search rejects such points, so iterates remain in
/// the domain provided `x0` starts there.
///
/// # Errors
///
/// - [`SolverError::InvalidArgument`] if `x0` has the wrong dimension or an
///   infinite starting value.
/// - [`SolverError::MaxIterationsExceeded`] if the decrement never reaches
///   tolerance.
/// - [`SolverError::NonFinite`] if derivatives become non-finite.
///
/// # Examples
///
/// ```
/// use ref_solver::func::Quadratic;
/// use ref_solver::newton::{minimize, NewtonOptions};
/// use ref_solver::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]])?;
/// let mut f = Quadratic::new(q, vec![-2.0, -4.0]);
/// let r = minimize(&mut f, &[0.0, 0.0], &NewtonOptions::default())?;
/// assert!((r.x[0] - 1.0).abs() < 1e-8);
/// assert!((r.x[1] - 2.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn minimize(f: &mut dyn Objective, x0: &[f64], opts: &NewtonOptions) -> Result<NewtonResult> {
    let mut x = x0.to_vec();
    let mut ws = Workspace::new(x0.len());
    let mut iterations = 0;
    let value = minimize_in(f, &mut x, opts, &mut ws, &mut iterations)?;
    Ok(NewtonResult {
        x,
        value,
        iterations,
    })
}

/// [`minimize`] in place: `x` is the start and ends as the minimizer, the
/// return value is the objective there. `iterations` is incremented once
/// per Newton system solved, also when the call ends in an error.
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
        ws.newton_step(f, x)?;
        let gd = vec_ops::dot(&ws.grad, &ws.step);
        let decrement = -gd;
        if decrement <= 0.0 {
            // Direction is not a descent direction (can happen when the
            // ridge dominates); fall back to steepest descent.
            if vec_ops::dot(&ws.grad, &ws.grad).sqrt() <= opts.tolerance {
                return Ok(fx);
            }
        }
        if decrement / 2.0 <= opts.tolerance {
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
    use crate::func::Quadratic;

    #[test]
    fn quadratic_converges_in_one_step() {
        let q = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let mut f = Quadratic::new(q, vec![1.0, -2.0]);
        let r = minimize(&mut f, &[5.0, -5.0], &NewtonOptions::default()).unwrap();
        // Optimum solves Qx = -c.
        let mut g = vec![0.0; 2];
        f.eval(&r.x, &mut g, &mut Matrix::zeros(2, 2));
        assert!(vec_ops::norm_inf(&g) < 1e-8);
        // One step, and the system that found the decrement at zero.
        assert_eq!(r.iterations, 2);
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
        fn eval(&mut self, x: &[f64], grad: &mut [f64], hess: &mut Matrix) -> f64 {
            let s = 2.0 * x[0].cosh() + 2.0 * x[1].cosh();
            for i in 0..2 {
                grad[i] = 2.0 * x[i].sinh() / s;
            }
            for i in 0..2 {
                for j in 0..2 {
                    let own = if i == j { 2.0 * x[i].cosh() / s } else { 0.0 };
                    hess[(i, j)] = own - grad[i] * grad[j];
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
            fn eval(&mut self, x: &[f64], grad: &mut [f64], hess: &mut Matrix) -> f64 {
                let d = 1.0 - x[0] * x[0];
                grad[0] = 2.0 * x[0] / d;
                hess[(0, 0)] = (2.0 * d + 4.0 * x[0] * x[0]) / (d * d);
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
        let mut ws = Workspace::new(2);
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
}

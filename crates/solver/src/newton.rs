//! Damped Newton minimization of smooth convex functions.
//!
//! Used as the inner loop of the barrier method ([`crate::barrier`]). Each
//! iteration solves `H d = -g` and backtracks until the Armijo condition
//! holds. Convergence is declared when the Newton decrement
//! `lambda^2 = -g . d` falls below tolerance.
//!
//! The Hessian arrives as `H = S + U diag(c) U^T` ([`Hessian`]): `S`
//! sparse in envelope storage, `U` a few columns. Only `S` is factored
//! (`Cholesky`, in its envelope); the rest enters through the `k x k`
//! capacitance matrix `M = I + C U^T Z` with `Z = S^-1 U`,
//! `H^-1 b = S^-1 b - Z M^-1 C U^T S^-1 b` — the form of the
//! Sherman-Morrison-Woodbury identity that never divides by a coefficient
//! `c_j`, which may be zero or negative. `M` is not symmetric: it is
//! eliminated with partial pivoting, in place, in a buffer the system
//! owns. With no columns this is a plain Cholesky solve. When `S` loses
//! definiteness to round-off, or the direction that comes out is not a
//! finite descent direction (`M` is not positive definite by
//! construction the way `L L^T` is), the system is solved again with a
//! growing Levenberg ridge on `S`'s diagonal.

use crate::cholesky::Cholesky;
use crate::error::{Result, SolverError};
use crate::func::{Hessian, Objective};
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

/// Relative pivot threshold below which the capacitance matrix counts as
/// singular.
const PIVOT_TOL: f64 = 1e-13;

/// The `k x k` capacitance matrix `M` of a Newton system, eliminated in
/// place with partial pivoting: `P M = L U`.
#[derive(Debug)]
struct Capacitance {
    /// `M` row by row, then its factors: `U` on and above the diagonal,
    /// `L` (unit diagonal implicit) below.
    lu: Vec<f64>,
    /// Row permutation: `perm[i]` is the row of `M` now in position `i`.
    perm: Vec<usize>,
    /// The right-hand side of one solve, then its solution.
    w: Vec<f64>,
}

impl Capacitance {
    fn new(k: usize) -> Capacitance {
        Capacitance {
            lu: vec![0.0; k * k],
            perm: vec![0; k],
            w: vec![0.0; k],
        }
    }

    /// Factors the `M` written into `lu`. On error `lu` holds garbage
    /// until `M` is written again.
    ///
    /// # Errors
    ///
    /// [`SolverError::NonFinite`] for a non-finite entry of `M`, and
    /// [`SolverError::Singular`] when no pivot clears `PIVOT_TOL` times
    /// the largest entry (at least 1).
    fn eliminate(&mut self) -> Result<()> {
        let (m, k) = (&mut self.lu, self.perm.len());
        if !vec_ops::all_finite(m) {
            return Err(SolverError::NonFinite("capacitance matrix".to_string()));
        }
        let scale = m.iter().fold(0.0_f64, |a, v| a.max(v.abs())).max(1.0);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        for c in 0..k {
            // Partial pivot: largest magnitude in column c at or below row c.
            let mut pivot_row = c;
            for i in c + 1..k {
                if m[i * k + c].abs() > m[pivot_row * k + c].abs() {
                    pivot_row = i;
                }
            }
            if m[pivot_row * k + c].abs() <= PIVOT_TOL * scale {
                return Err(SolverError::Singular);
            }
            if pivot_row != c {
                for j in 0..k {
                    m.swap(pivot_row * k + j, c * k + j);
                }
                self.perm.swap(pivot_row, c);
            }
            let pivot = m[c * k + c];
            for i in c + 1..k {
                let factor = m[i * k + c] / pivot;
                m[i * k + c] = factor;
                for j in c + 1..k {
                    let mcj = m[c * k + j];
                    m[i * k + j] -= factor * mcj;
                }
            }
        }
        Ok(())
    }

    /// Solves `M w = b` for the factored `M`, where `b_j = rhs(j)`.
    fn solve(&mut self, rhs: impl Fn(usize) -> f64) -> &[f64] {
        let (m, y, k) = (&self.lu, &mut self.w, self.perm.len());
        for (yi, &p) in y.iter_mut().zip(&self.perm) {
            *yi = rhs(p);
        }
        for i in 1..k {
            let mut s = y[i];
            for c in 0..i {
                s -= m[i * k + c] * y[c];
            }
            y[i] = s;
        }
        for i in (0..k).rev() {
            let mut s = y[i];
            for c in i + 1..k {
                s -= m[i * k + c] * y[c];
            }
            y[i] = s / m[i * k + i];
        }
        y
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
    /// `M = I + C U^T Z` and its elimination, while `U` has columns.
    capacitance: Capacitance,
}

impl System {
    fn new(hess: Hessian) -> System {
        let (n, k) = (hess.dim(), hess.rank());
        System {
            hess,
            factor: Cholesky::with_profile(&[]),
            z: vec![0.0; n * k],
            capacitance: Capacitance::new(k),
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
        for (e, m) in self.capacitance.lu.iter_mut().enumerate() {
            let (i, j) = (e / k, e % k);
            let identity = if i == j { 1.0 } else { 0.0 };
            *m = identity + self.hess.column_dot(i, &self.z[j * n..(j + 1) * n]);
        }
        self.capacitance.eliminate()
    }

    /// `out = H^-1 v` for the `H` last factored.
    fn solve(&mut self, v: &[f64], out: &mut [f64]) -> Result<()> {
        self.factor.solve_into(v, out)?;
        if self.hess.rank() == 0 {
            return Ok(());
        }
        let hess = &self.hess;
        let w = self.capacitance.solve(|j| hess.column_dot(j, out));
        for (wj, z) in w.iter().zip(self.z.chunks_exact(out.len())) {
            vec_ops::axpy(-wj, z, out);
        }
        Ok(())
    }
}

/// Buffers one Newton loop needs, sized for one objective: the barrier
/// method allocates them once per solve and every centering step reuses
/// them, so an iterate allocates nothing.
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
    pub(crate) fn solve_factored(&mut self, v: &[f64], out: &mut [f64]) -> Result<()> {
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
    use crate::matrix_ops::{identity, matvec};
    use proptest::prelude::*;

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
        let q = vec![vec![4.0, 1.0], vec![1.0, 3.0]];
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
        let q = vec![vec![2.0, 0.0], vec![0.0, 2.0]];
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
        let mut f = Quadratic::new(identity(2), vec![0.0, 0.0]);
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
        let q = identity(2);
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
        let mut f = Quadratic::new(identity(2), vec![1.0, 1.0]);
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
        let q = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
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

    /// `M`, written into a capacitance buffer of its size.
    fn capacitance(m: &[Vec<f64>]) -> Capacitance {
        let mut c = Capacitance::new(m.len());
        c.lu = m.concat();
        c
    }

    /// `w` with `M w = b`, or the elimination's refusal.
    fn solve_capacitance(m: &[Vec<f64>], b: &[f64]) -> Result<Vec<f64>> {
        let mut c = capacitance(m);
        c.eliminate()?;
        Ok(c.solve(|j| b[j]).to_vec())
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn the_capacitance_system_is_solved_with_pivoting() {
        // Leading zero forces a row swap.
        let m = vec![
            vec![0.0, 1.0, 2.0],
            vec![3.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ];
        let w = solve_capacitance(&m, &[8.0, 7.0, 6.0]).unwrap();
        let mw = matvec(&m, &w).unwrap();
        for (got, want) in mw.iter().zip(&[8.0, 7.0, 6.0]) {
            assert_close(*got, *want, 1e-10);
        }
        let mut c = capacitance(&m);
        c.eliminate().unwrap();
        assert_eq!(c.perm, [1, 0, 2]);
    }

    #[test]
    fn a_leading_zero_pivot_of_the_capacitance_matrix_is_swapped_away() {
        let w = solve_capacitance(&[vec![0.0, 2.0], vec![3.0, 1.0]], &[4.0, 5.0]).unwrap();
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_singular_capacitance_matrix_is_refused() {
        let singular = [vec![1.0, 2.0], vec![2.0, 4.0]];
        assert_eq!(
            solve_capacitance(&singular, &[1.0, 1.0]),
            Err(SolverError::Singular)
        );
        // The pivot test is relative to the largest entry: a pivot that
        // would pass against 1 is refused against 1e20.
        let tiny_pivot = [vec![1e20, 1e20], vec![1.0, 1.0 + 1e-4]];
        assert_eq!(
            solve_capacitance(&tiny_pivot, &[1.0, 1.0]),
            Err(SolverError::Singular)
        );
    }

    #[test]
    fn a_non_finite_capacitance_matrix_is_refused() {
        for bad in [f64::NAN, f64::INFINITY] {
            let m = [vec![1.0, 0.0], vec![0.0, bad]];
            assert!(matches!(
                solve_capacitance(&m, &[1.0, 1.0]),
                Err(SolverError::NonFinite(_))
            ));
        }
    }

    #[test]
    fn the_capacitance_solve_agrees_with_qr_on_a_random_system() {
        let m = [
            vec![3.0, -1.0, 2.0],
            vec![1.0, 4.0, -2.0],
            vec![-2.0, 1.5, 5.0],
        ];
        let b = [1.0, -2.0, 3.5];
        let w = solve_capacitance(&m, &b).unwrap();
        let want = crate::qr::Qr::new(&m)
            .unwrap()
            .solve_least_squares(&b)
            .unwrap();
        for (got, want) in w.iter().zip(&want) {
            assert_close(*got, *want, 1e-10);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_capacitance_systems_are_solved_to_their_residual(
            k in 1usize..=5,
            entries in prop::collection::vec(-4.0..4.0_f64, 25),
            b in prop::collection::vec(-10.0..10.0_f64, 5),
        ) {
            // I + C U^T Z as the Newton step forms it: the identity plus
            // anything.
            let m: Vec<Vec<f64>> = (0..k)
                .map(|i| (0..k).map(|j| entries[i * 5 + j] + f64::from(u8::from(i == j))).collect())
                .collect();
            let b = &b[..k];
            let Ok(w) = solve_capacitance(&m, b) else {
                // Random matrices can be singular to working precision.
                return Ok(());
            };
            let mw = matvec(&m, &w).unwrap();
            let scale = (1.0 + crate::matrix_ops::max_abs(&m)) * (1.0 + vec_ops::norm_inf(&w));
            for (got, want) in mw.iter().zip(b) {
                prop_assert!((got - want).abs() <= 1e-12 * scale, "{got} vs {want}");
            }
        }
    }
}

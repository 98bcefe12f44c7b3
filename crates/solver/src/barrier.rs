//! Log-barrier interior-point method for convex minimization under
//! log-sum-exp inequality constraints.
//!
//! Solves `minimize f0(x) subject to f_i(x) <= 0` where `f0` and every `f_i`
//! are `LogSumExp` functions. This is the engine behind the
//! geometric-programming layer ([`crate::gp`]) that replaces CVX in the REF
//! paper's evaluation.
//!
//! The implementation follows the classic two-phase scheme (Boyd &
//! Vandenberghe, ch. 11): a phase-I problem finds a strictly feasible point
//! when the caller's start is not, and the central path is then traced by
//! minimizing `t f0(x) + phi(x)` with damped Newton for geometrically
//! increasing `t`, where `phi(x) = -sum_i log(-f_i(x))`. Each Newton system
//! is assembled in one pass over the constraints' non-zeros
//! (`LogSumExp::add_derivatives`) into buffers that live as long as the
//! solve, as a sparse matrix plus the few dense rank-one terms that would
//! fill it (`Hessian`); which terms are kept apart is read off the
//! program's sparsity once per solve.

use crate::error::{Result, SolverError};
use crate::func::{Hessian, LogSumExp, Objective};
use crate::newton::{self, NewtonOptions, Workspace};
use crate::vec_ops;

/// Options controlling the interior-point iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BarrierOptions {
    /// Factor by which the path parameter `t` grows each outer iteration.
    pub mu: f64,
    /// Initial path parameter.
    pub t0: f64,
    /// Target duality gap `m / t`.
    pub tolerance: f64,
    /// Maximum number of outer (centering) iterations.
    pub max_outer_iterations: usize,
    /// Options for the inner Newton solves.
    pub newton: NewtonOptions,
    /// Margin by which phase I must clear zero to declare strict
    /// feasibility.
    pub feasibility_margin: f64,
}

impl Default for BarrierOptions {
    fn default() -> BarrierOptions {
        BarrierOptions {
            mu: 20.0,
            t0: 1.0,
            tolerance: 1e-6,
            max_outer_iterations: 100,
            newton: NewtonOptions {
                tolerance: 1e-9,
                max_iterations: 300,
                ..NewtonOptions::default()
            },
            feasibility_margin: 1e-9,
        }
    }
}

/// What became of a warm-start hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmOutcome {
    /// No usable hint was offered: the solve ran the cold path.
    #[default]
    Cold,
    /// The path re-entered from the hint and produced the answer.
    Used,
    /// The hint was tried and abandoned (it is infeasible for this
    /// problem, or re-centering from it exceeded its budget); the cold
    /// path produced the answer.
    FellBack,
}

/// Work a solve performed, in Newton systems assembled and solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// All Newton iterations: phase I, an abandoned warm attempt (its
    /// re-entry probe counts as one) and the path that produced the answer.
    pub newton_iterations: usize,
    /// The phase-I share of `newton_iterations`; zero when the start was
    /// strictly feasible.
    pub phase_one_iterations: usize,
    /// What became of the warm-start hint, if one was offered.
    pub warm: WarmOutcome,
}

/// Outcome of a barrier-method minimization.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BarrierResult {
    /// Minimizer.
    pub x: Vec<f64>,
    /// Objective value at the minimizer.
    pub value: f64,
    /// Number of outer (centering) iterations on the path that produced
    /// the answer.
    pub outer_iterations: usize,
    /// Path parameter `t` at which the final centering converged.
    pub final_t: f64,
    /// Work performed.
    pub stats: SolveStats,
}

/// A previous optimum of a nearby problem, offered to [`minimize_warm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WarmStart<'a> {
    /// The previous minimizer.
    pub x: &'a [f64],
    /// The path parameter it converged at; re-entry never starts above it.
    pub t: f64,
}

/// Half-width of the box phase I keeps its iterate in, around the start.
/// Without it the phase-I centering problem need not have a minimizer; it
/// is huge relative to any sensible problem scaling, so it never hides a
/// feasible point in practice.
const PHASE_ONE_BOX: f64 = 50.0;

/// Newton iterations the first centering of a warm re-entry that skips
/// stages may spend before the hint is abandoned. A stage of the path takes
/// 6-10 on the REF programs; re-entry from a hint worth having takes no
/// more, and one that needs more has hit the slow damped phase next to the
/// boundary, where hundreds of iterations can go. With the probe, an
/// abandoned hint therefore costs at most 11 iterations.
const WARM_CENTERING_BUDGET: usize = 10;

/// Newton decrement `lambda^2 / 2` at which a re-entry centering that is
/// not the last stage stops: `lambda` about 0.14, inside the region
/// (`lambda < 1/4`) where Newton's method converges quadratically.
const RE_ENTRY_TOLERANCE: f64 = 1e-2;

/// The barrier-augmented objective `t f0(x) - sum_i log(-f_i(x))`, plus —
/// for phase I, where the last variable is the slack `s` — the diagonal
/// barrier of `s >= -1` and of the box around `centre`.
struct Centering<'a> {
    t: f64,
    f0: &'a LogSumExp,
    constraints: &'a [LogSumExp],
    phase_one_centre: Option<&'a [f64]>,
    /// Softmax weights of the function being visited.
    p: Vec<f64>,
    /// Dense gradient scratch for [`LogSumExp::add_derivatives`].
    g: Vec<f64>,
    /// Profile of the envelope part `S` of the Hessian `S + U diag(c) U^T`.
    first: Vec<usize>,
    /// Per constraint, the column of `U` its `g g^T` piece is kept in;
    /// `None` where it is added into `S`.
    columns: Vec<Option<usize>>,
}

impl<'a> Centering<'a> {
    /// The centering objective of a program, with its Hessian's structure
    /// chosen from the program's sparsity alone.
    ///
    /// `S` takes, entry by entry, the objective's curvature, every
    /// constraint's `w2 sum_k p_k a_k a_k^T` and every one-term
    /// constraint's `w1 a a^T`: its profile is the first column any of
    /// them pairs each variable with. What fills a Hessian is the
    /// `(w1 - w2) g g^T` of a constraint with several terms, dense over
    /// its whole support (a capacity constraint: one variable of every
    /// agent). Visiting those in order, each is added into `S` if that
    /// costs no more than keeping it as one more column of `U` does, in
    /// multiply-adds per Newton iterate: growth of the factorization's
    /// `sum_i len_i^2 / 2` over the rows `i` of the profile, against one
    /// more solve with the factor (`2 sum_i len_i`), a rank-one
    /// correction of the step (`n`) and a larger `k x k` system.
    fn new(f0: &'a LogSumExp, constraints: &'a [LogSumExp]) -> Centering<'a> {
        let n = f0.dim();
        let mut first: Vec<usize> = (0..n).collect();
        let fill = |first: &mut [usize], support: &[usize]| {
            for &i in support {
                first[i] = first[i].min(support[0]);
            }
        };
        if f0.terms() > 1 {
            f0.mark_terms(&mut first);
            fill(&mut first, f0.support());
        }
        for c in constraints {
            c.mark_terms(&mut first);
        }
        let mut stored: u64 = first
            .iter()
            .enumerate()
            .map(|(i, f)| (i - f + 1) as u64)
            .sum();
        let mut k = 0;
        let columns = constraints
            .iter()
            .map(|c| {
                if c.terms() == 1 {
                    return None;
                }
                let support = c.support();
                let (mut more_squares, mut more_stored) = (0, 0);
                for &i in support {
                    let (now, then) = ((i - first[i] + 1) as u64, (i - support[0] + 1) as u64);
                    if then > now {
                        more_squares += then * then - now * now;
                        more_stored += then - now;
                    }
                }
                let one_more_column = 2 * stored + n as u64 + 3 * k * k;
                if more_squares / 2 <= one_more_column {
                    fill(&mut first, support);
                    stored += more_stored;
                    None
                } else {
                    k += 1;
                    Some(k as usize - 1)
                }
            })
            .collect();
        Centering {
            t: 0.0,
            f0,
            constraints,
            phase_one_centre: None,
            p: Vec::new(),
            g: vec![0.0; n],
            first,
            columns,
        }
    }

    /// Number of inequality constraints, the `m` of the duality gap `m / t`.
    fn num_constraints(&self) -> usize {
        self.constraints.len() + self.phase_one_centre.map_or(0, |c| 2 * c.len() + 1)
    }
}

/// Slacks of the phase-I box `|z_j - c_j| <= B`.
fn box_slacks(z: f64, c: f64) -> (f64, f64) {
    (PHASE_ONE_BOX - (z - c), PHASE_ONE_BOX + (z - c))
}

impl Objective for Centering<'_> {
    fn dim(&self) -> usize {
        self.f0.dim()
    }

    fn value(&mut self, x: &[f64]) -> f64 {
        let mut v = self.t * self.f0.value(x, &mut self.p);
        for c in self.constraints {
            let fi = c.value(x, &mut self.p);
            if fi >= 0.0 || !fi.is_finite() {
                return f64::INFINITY;
            }
            v -= (-fi).ln();
        }
        if let Some(centre) = self.phase_one_centre {
            let s = x[centre.len()] + 1.0;
            if s <= 0.0 {
                return f64::INFINITY;
            }
            v -= s.ln();
            for (&z, &c) in x.iter().zip(centre) {
                let (up, down) = box_slacks(z, c);
                if up <= 0.0 || down <= 0.0 {
                    return f64::INFINITY;
                }
                v -= up.ln() + down.ln();
            }
        }
        v
    }

    fn hessian(&self) -> Hessian {
        let kept_apart = self.constraints.iter().zip(&self.columns);
        Hessian::new(
            self.first.clone(),
            kept_apart.filter_map(|(c, column)| column.map(|_| c.support())),
        )
    }

    fn eval(&mut self, x: &[f64], grad: &mut [f64], hess: &mut Hessian) -> f64 {
        grad.fill(0.0);
        let t = self.t;
        let mut v = t * self.f0.eval(x, &mut self.p);
        self.f0
            .add_derivatives(&self.p, t, t, -t, grad, hess, None, &mut self.g);
        for (c, &column) in self.constraints.iter().zip(&self.columns) {
            let fi = c.eval(x, &mut self.p);
            v -= (-fi).ln();
            // -log(-f) has gradient g / -f and Hessian
            // g g^T / f^2 + H_f / -f, with H_f = sum_k p_k a_k a_k^T - g g^T.
            // The coefficient w1 - w2 of g g^T is zero at f = -1 and
            // negative beyond.
            let w1 = 1.0 / (fi * fi);
            let w2 = -1.0 / fi; // fi < 0 at feasible points
            c.add_derivatives(&self.p, w2, w2, w1 - w2, grad, hess, column, &mut self.g);
        }
        if let Some(centre) = self.phase_one_centre {
            let n = centre.len();
            let s = x[n] + 1.0;
            v -= s.ln();
            grad[n] -= 1.0 / s;
            hess.add(n, n, 1.0 / (s * s));
            for (j, (&z, &c)) in x.iter().zip(centre).enumerate() {
                let (up, down) = box_slacks(z, c);
                v -= up.ln() + down.ln();
                grad[j] += 1.0 / up - 1.0 / down;
                hess.add(j, j, 1.0 / (up * up) + 1.0 / (down * down));
            }
        }
        v
    }
}

/// Returns the largest constraint value at `x`, or `None` when there are no
/// constraints.
pub(crate) fn max_violation(constraints: &[LogSumExp], x: &[f64]) -> Option<f64> {
    let mut p = Vec::new();
    constraints
        .iter()
        .map(|c| c.value(x, &mut p))
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

/// Whether `x` clears every constraint by the feasibility margin.
fn strictly_feasible(constraints: &[LogSumExp], x: &[f64], opts: &BarrierOptions) -> bool {
    max_violation(constraints, x).is_none_or(|v| v < -opts.feasibility_margin)
}

/// Minimizes `f0` subject to `f_i(x) <= 0` for every constraint,
/// re-entering the central path from a previous optimum of a nearby
/// problem when `warm` is given.
///
/// `x0` is any starting point; a phase-I solve is performed first if it is
/// not strictly feasible (by [`BarrierOptions::feasibility_margin`]), so a
/// caller that knows an interior point saves that work by passing it.
///
/// The hint is advisory, and used only when `x0` is strictly feasible. The
/// stage of the cold schedule `t0 mu^k` to re-enter at is read off the
/// Newton decrement at the hint, and the hint is pulled back along the
/// segment towards `x0` to where the centering objective at that stage is
/// smallest (DESIGN.md section 12). If the first centering of a re-entry
/// that skips stages does not converge within a fixed budget, or the hint
/// is central for no stage at all, the solve is the cold solve from `x0`
/// and [`SolveStats::warm`] says so. Both paths end at the same `t`, hence
/// on the same central point. With `warm = None` this is the cold solve —
/// same iterates bit for bit.
///
/// # Errors
///
/// - [`SolverError::Infeasible`] if no strictly feasible point exists.
/// - [`SolverError::MaxIterationsExceeded`] if the central path does not
///   reach the target gap.
/// - [`SolverError::InvalidArgument`] for a hint of the wrong dimension or
///   with a non-finite or non-positive `t`.
/// - Errors propagated from the inner Newton solves.
pub(crate) fn minimize_warm(
    f0: &LogSumExp,
    constraints: &[LogSumExp],
    x0: &[f64],
    opts: &BarrierOptions,
    warm: Option<WarmStart<'_>>,
) -> Result<BarrierResult> {
    let n = f0.dim();
    if warm.is_some_and(|w| !(w.t > 0.0 && w.t.is_finite())) {
        return Err(SolverError::InvalidArgument(
            "warm-start path parameter must be finite and positive".to_string(),
        ));
    }
    if x0.len() != n
        || warm.is_some_and(|w| w.x.len() != n)
        || constraints.iter().any(|c| c.dim() != n)
    {
        return Err(SolverError::InvalidArgument(format!(
            "start point, hint and constraints must all have the objective's {n} variables"
        )));
    }
    let mut stats = SolveStats::default();
    let mut centering = Centering::new(f0, constraints);
    let mut ws = Workspace::new(&centering);
    let x0_interior = strictly_feasible(constraints, x0, opts);
    if let Some(w) = warm {
        stats.warm = WarmOutcome::FellBack;
        // The pull-back needs an interior `x0` to pull towards, and without
        // constraints there is no path to re-enter.
        if x0_interior && !constraints.is_empty() {
            if let Some((x, t)) = re_enter(&mut centering, &w, x0, opts, &mut ws, &mut stats) {
                // Skipping stages is a bet, so its first centering is
                // budgeted. At t0 nothing is skipped: the warm path does
                // the cold path's own first stage, from a point where the
                // centering objective is no higher than at `x0`.
                let mut first = opts.newton.clone();
                if t > opts.t0 {
                    first.max_iterations = WARM_CENTERING_BUDGET;
                }
                // Unless it is the last, the re-entry centering only has
                // to reach Newton's quadratic phase: the stage after it
                // starts m (mu - 1)^2 from central whatever it is handed.
                if centering.num_constraints() as f64 / t >= opts.tolerance {
                    first.tolerance = first.tolerance.max(RE_ENTRY_TOLERANCE);
                }
                let path = central_path(&mut centering, x, t, &first, opts, &mut ws, &mut stats);
                if let Ok(mut r) = path {
                    r.stats.warm = WarmOutcome::Used;
                    return Ok(r);
                }
            }
        }
    }
    let x_start = if x0_interior {
        x0.to_vec()
    } else {
        phase_one(constraints, x0, opts, &mut stats)?
    };
    central_path(
        &mut centering,
        x_start,
        opts.t0,
        &opts.newton,
        opts,
        &mut ws,
        &mut stats,
    )
}

/// Traces the central path from `x` at parameter `t` until the duality gap
/// `m / t` meets the tolerance. The first centering runs under `first`
/// (a warm re-entry budgets it), the rest under `opts.newton`.
fn central_path(
    centering: &mut Centering<'_>,
    mut x: Vec<f64>,
    mut t: f64,
    first: &NewtonOptions,
    opts: &BarrierOptions,
    ws: &mut Workspace,
    stats: &mut SolveStats,
) -> Result<BarrierResult> {
    let m = centering.num_constraints() as f64;
    let mut newton = first;
    for outer in 0..opts.max_outer_iterations {
        centering.t = t;
        newton::minimize_in(centering, &mut x, newton, ws, &mut stats.newton_iterations)?;
        newton = &opts.newton;
        if m / t < opts.tolerance {
            let value = centering.f0.value(&x, &mut centering.p);
            return Ok(BarrierResult {
                x,
                value,
                outer_iterations: outer + 1,
                final_t: t,
                stats: *stats,
            });
        }
        t *= opts.mu;
    }
    Err(SolverError::MaxIterationsExceeded {
        iterations: opts.max_outer_iterations,
    })
}

/// Moves `x` half of the way to `target`.
fn halve_towards(x: &mut [f64], target: &[f64]) {
    for (xi, t) in x.iter_mut().zip(target) {
        *xi = t + 0.5 * (*xi - t);
    }
}

/// Chooses where a warm start re-enters the central path — the point and
/// the path parameter — or `None` when the hint is central for no stage of
/// the path. Costs one Newton system (counted in `stats`) and a few dozen
/// function values.
///
/// At the hint `x`, with `g0` the objective's gradient and `g`, `H` the
/// barrier's gradient and Hessian, the Newton decrement of the centering
/// problem at parameter `t` is `(t g0 + g)^T H^-1 (t g0 + g)` — a quadratic
/// in `t` (exactly when the objective is affine, as every monomial
/// objective is in log space; its curvature is ignored otherwise, which
/// can only cost iterations). It is smallest at `t_c = -(g0^T H^-1 g) /
/// (g0^T H^-1 g0)`, the parameter the hint is closest to central for (Boyd
/// & Vandenberghe section 11.3.1, in the affine-invariant norm), and back
/// at its `t = 0` value — following the objective is no worse than
/// ignoring it — at `2 t_c`. Re-entry is at the last stage of the cold
/// schedule `t0 mu^k` not past `min(2 t_c, hint.t)`, so from there on the
/// warm path visits the parameters the cold path would and ends on the
/// same central point.
///
/// An optimum sits `1 / (t lambda_i)` from its active constraints: too
/// close for any smaller `t`, and a Newton step can at best double a
/// slack. So the hint is pulled back along the segment towards the
/// interior start `x0`, halving the distance while the centering objective
/// at the chosen `t` keeps falling. A hint whose active constraints moved
/// past it is pulled back the same way to the first strictly feasible
/// halving before anything else.
fn re_enter(
    centering: &mut Centering<'_>,
    hint: &WarmStart<'_>,
    x0: &[f64],
    opts: &BarrierOptions,
    ws: &mut Workspace,
    stats: &mut SolveStats,
) -> Option<(Vec<f64>, f64)> {
    let interior = |x: &[f64]| strictly_feasible(centering.constraints, x, opts);
    let mut base = hint.x.to_vec();
    if !interior(&base) {
        base.copy_from_slice(x0);
        let mut closer = base.clone();
        for _ in 0..f64::MANTISSA_DIGITS {
            halve_towards(&mut closer, hint.x);
            if !interior(&closer) {
                break;
            }
            base.copy_from_slice(&closer);
        }
    }

    // With t = 0 the centering objective is the barrier alone: the Newton
    // system there yields g and -H^-1 g (`ws.step`).
    centering.t = 0.0;
    stats.newton_iterations += 1;
    ws.newton_step(centering, &base).ok()?;
    let mut g0 = vec![0.0; base.len()];
    centering.f0.eval(&base, &mut centering.p);
    let no_hessian = &mut Hessian::dense(0);
    centering.f0.add_derivatives(
        &centering.p,
        1.0,
        0.0,
        0.0,
        &mut g0,
        no_hessian,
        None,
        &mut centering.g,
    );
    let mut h_inv_g0 = vec![0.0; base.len()];
    ws.solve_factored(&g0, &mut h_inv_g0).ok()?;
    let t_central = vec_ops::dot(&g0, &ws.step) / vec_ops::dot(&g0, &h_inv_g0);
    let t_max = (2.0 * t_central).min(hint.t);
    if !(t_max >= opts.t0) {
        return None; // also when the probe produced a NaN
    }
    let m = centering.num_constraints() as f64;
    let mut t = opts.t0;
    while m / t >= opts.tolerance && t * opts.mu <= t_max {
        t *= opts.mu;
    }

    centering.t = t;
    let mut best = (centering.value(&base), base.clone());
    let mut x = x0.to_vec();
    let mut last = f64::INFINITY;
    for _ in 0..f64::MANTISSA_DIGITS {
        let v = centering.value(&x);
        if v >= last {
            break;
        }
        last = v;
        if v < best.0 {
            best = (v, x.clone());
        }
        halve_towards(&mut x, &base);
    }
    Some((best.1, t))
}

/// Solves the phase-I problem — minimize `s` over `(x, s)` subject to
/// `f_i(x) - s <= 0` — to find a strictly feasible point.
fn phase_one(
    constraints: &[LogSumExp],
    x0: &[f64],
    opts: &BarrierOptions,
    stats: &mut SolveStats,
) -> Result<Vec<f64>> {
    let n = x0.len();
    let worst = max_violation(constraints, x0).unwrap_or(0.0);
    if !worst.is_finite() {
        return Err(SolverError::InvalidArgument(
            "phase-I start point is outside the constraint domain".to_string(),
        ));
    }
    let mut z = x0.to_vec();
    z.push(worst + 1.0);

    let objective = LogSumExp::affine(n + 1, &[(n, 1.0)], 0.0)?;
    let lifted: Vec<LogSumExp> = constraints.iter().map(LogSumExp::minus_slack).collect();
    // s >= -1 (any s < 0 already proves strict feasibility) and the box
    // keep the subproblem bounded; both are diagonal terms of the
    // centering objective, not constraints of their own.
    let mut centering = Centering::new(&objective, &lifted);
    centering.phase_one_centre = Some(x0);
    let mut ws = Workspace::new(&centering);

    // Trace the phase-I central path, stopping early once s is comfortably
    // negative.
    let m = centering.num_constraints() as f64;
    let mut t = opts.t0;
    for _ in 0..opts.max_outer_iterations {
        centering.t = t;
        newton::minimize_in(
            &mut centering,
            &mut z,
            &opts.newton,
            &mut ws,
            &mut stats.phase_one_iterations,
        )?;
        if z[n] < -10.0 * opts.feasibility_margin.max(1e-12) {
            stats.newton_iterations += stats.phase_one_iterations;
            z.truncate(n);
            return Ok(z);
        }
        if m / t < opts.tolerance {
            // Converged with s >= 0: no strictly feasible point.
            return Err(SolverError::Infeasible);
        }
        t *= opts.mu;
    }
    Err(SolverError::MaxIterationsExceeded {
        iterations: opts.max_outer_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::dense::{self, Objective as _};
    use crate::matrix::Matrix;
    use proptest::prelude::*;

    /// [`minimize_warm`] with no hint.
    fn minimize(
        f0: &LogSumExp,
        constraints: &[LogSumExp],
        x0: &[f64],
        opts: &BarrierOptions,
    ) -> Result<BarrierResult> {
        minimize_warm(f0, constraints, x0, opts, None)
    }

    fn affine(dim: usize, a: &[(usize, f64)], b: f64) -> LogSumExp {
        LogSumExp::affine(dim, a, b).unwrap()
    }

    /// `0 <= x, y <= 1` as four affine constraints.
    fn unit_box() -> Vec<LogSumExp> {
        vec![
            affine(2, &[(0, 1.0)], -1.0),
            affine(2, &[(1, 1.0)], -1.0),
            affine(2, &[(0, -1.0)], 0.0),
            affine(2, &[(1, -1.0)], 0.0),
        ]
    }

    /// `e^x + e^y <= 1`.
    fn budget() -> LogSumExp {
        LogSumExp::from_terms(2, [(&[(0, 1.0)][..], 0.0), (&[(1, 1.0)][..], 0.0)]).unwrap()
    }

    #[test]
    fn linear_program_box() {
        // minimize -x - 2y over the unit box.
        let f0 = affine(2, &[(0, -1.0), (1, -2.0)], 0.0);
        let r = minimize(&f0, &unit_box(), &[0.5, 0.5], &BarrierOptions::default()).unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.value + 3.0).abs() < 1e-3);
        assert_eq!(r.stats.phase_one_iterations, 0);
        assert_eq!(r.stats.warm, WarmOutcome::Cold);
    }

    #[test]
    fn phase_one_recovers_feasibility() {
        // Start outside the box; phase I should pull the iterate inside.
        let f0 = affine(2, &[(0, 1.0)], 0.0);
        let r = minimize(&f0, &unit_box(), &[5.0, 5.0], &BarrierOptions::default()).unwrap();
        assert!(r.x[0].abs() < 1e-3, "{:?}", r.x);
        assert!(r.stats.phase_one_iterations > 0);
        assert!(r.stats.newton_iterations > r.stats.phase_one_iterations);
    }

    #[test]
    fn phase_one_runs_from_the_boundary_and_not_from_inside() {
        // x = y = log 1/2 exhausts the budget exactly: not strictly
        // feasible, so phase I has to run; from inside, it must not.
        let f0 = affine(2, &[(0, -1.0), (1, -1.0)], 0.0);
        let edge = 0.5_f64.ln();
        let opts = BarrierOptions::default();
        let on = minimize(&f0, &[budget()], &[edge, edge], &opts).unwrap();
        assert!(on.stats.phase_one_iterations > 0);
        let inside = minimize(&f0, &[budget()], &[edge - 0.5, edge - 0.5], &opts).unwrap();
        assert_eq!(inside.stats.phase_one_iterations, 0);
        assert!(inside.stats.newton_iterations < on.stats.newton_iterations);
        for (a, b) in on.x.iter().zip(&inside.x) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn infeasible_problem_detected() {
        // x <= -1 and -x <= -1 cannot both hold.
        let f0 = affine(1, &[(0, 1.0)], 0.0);
        let cons = [affine(1, &[(0, 1.0)], 1.0), affine(1, &[(0, -1.0)], 1.0)];
        assert!(matches!(
            minimize(&f0, &cons, &[0.0], &BarrierOptions::default()),
            Err(SolverError::Infeasible)
        ));
    }

    #[test]
    fn unconstrained_is_a_single_newton_solve() {
        let f =
            LogSumExp::from_terms(1, [(&[(0, 1.0)][..], 0.0), (&[(0, -1.0)][..], 0.0)]).unwrap();
        let r = minimize(&f, &[], &[3.0], &BarrierOptions::default()).unwrap();
        assert!(r.x[0].abs() < 1e-6);
        assert_eq!(r.outer_iterations, 1);
        // A hint is of no use without a path; it is reported as unused.
        let hint = WarmStart { x: &r.x, t: 1.0 };
        let again = minimize_warm(&f, &[], &[3.0], &BarrierOptions::default(), Some(hint)).unwrap();
        assert_eq!(again.stats.warm, WarmOutcome::FellBack);
        assert_eq!(again.x, r.x);
    }

    #[test]
    fn lse_constraint_respected() {
        // minimize -x - y subject to e^x + e^y <= 1.
        let f0 = affine(2, &[(0, -1.0), (1, -1.0)], 0.0);
        let r = minimize(&f0, &[budget()], &[-2.0, -2.0], &BarrierOptions::default()).unwrap();
        // Symmetric optimum at x = y = log(1/2).
        let expect = 0.5_f64.ln();
        assert!((r.x[0] - expect).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] - expect).abs() < 1e-4, "{:?}", r.x);
    }

    #[test]
    fn budget_split_evenly_from_the_lse_constructors() {
        let objective = LogSumExp::affine(2, &[(0, -1.0), (1, -1.0)], 0.0).unwrap();
        let budget =
            LogSumExp::from_terms(2, [(&[(0, 1.0)][..], 0.0), (&[(1, 1.0)][..], 0.0)]).unwrap();
        let r = minimize(
            &objective,
            &[budget],
            &[-2.0, -2.0],
            &BarrierOptions::default(),
        )
        .unwrap();
        assert!((r.x[0] - 0.5_f64.ln()).abs() < 1e-4);
        assert!((r.x[1] - 0.5_f64.ln()).abs() < 1e-4);
    }

    /// minimize `-a x - b y` subject to `e^x + e^y <= 1`: the optimum puts
    /// `a / (a + b)` of the budget on `x`.
    fn split(a: f64, b: f64) -> LogSumExp {
        affine(2, &[(0, -a), (1, -b)], 0.0)
    }

    #[test]
    fn warm_restart_lands_on_the_cold_answer_in_fewer_iterations() {
        let opts = BarrierOptions::default();
        let cons = [budget()];
        let start = [-2.0, -2.0];
        let before = minimize(&split(1.0, 2.0), &cons, &start, &opts).unwrap();
        let hint = WarmStart {
            x: &before.x,
            t: before.final_t,
        };
        // The same problem again: re-entry at the last stage.
        let same = minimize_warm(&split(1.0, 2.0), &cons, &start, &opts, Some(hint)).unwrap();
        assert_eq!(same.stats.warm, WarmOutcome::Used);
        assert_eq!(same.outer_iterations, 1);
        assert!(same.stats.newton_iterations <= 4, "{:?}", same.stats);
        // A nearby problem: some stages skipped, same final stage as cold.
        let f0 = split(1.0, 2.02);
        let cold = minimize(&f0, &cons, &start, &opts).unwrap();
        let warm = minimize_warm(&f0, &cons, &start, &opts, Some(hint)).unwrap();
        assert_eq!(warm.stats.warm, WarmOutcome::Used);
        assert_eq!(warm.final_t, cold.final_t);
        assert!(warm.outer_iterations < cold.outer_iterations);
        assert!(warm.stats.newton_iterations < cold.stats.newton_iterations);
        for (w, c) in warm.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-9, "{w} vs {c}");
        }
    }

    #[test]
    fn an_unhelpful_hint_costs_a_bounded_number_of_iterations() {
        let opts = BarrierOptions::default();
        let cons = [budget()];
        let start = [-2.0, -2.0];
        let before = minimize(&split(1.0, 200.0), &cons, &start, &opts).unwrap();
        // The optimum of the mirrored problem is in the wrong corner.
        let f0 = split(200.0, 1.0);
        let cold = minimize(&f0, &cons, &start, &opts).unwrap();
        let hint = WarmStart {
            x: &before.x,
            t: before.final_t,
        };
        let warm = minimize_warm(&f0, &cons, &start, &opts, Some(hint)).unwrap();
        let extra = 1 + WARM_CENTERING_BUDGET;
        assert!(
            warm.stats.newton_iterations <= cold.stats.newton_iterations + extra,
            "{:?} vs {:?}",
            warm.stats,
            cold.stats
        );
        for (w, c) in warm.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-9, "{w} vs {c}");
        }
        // A hint outside the feasible set is pulled inside before use.
        let outside = WarmStart {
            x: &[0.0, 0.0],
            t: before.final_t,
        };
        let rescued = minimize_warm(&f0, &cons, &start, &opts, Some(outside)).unwrap();
        assert!(rescued.stats.newton_iterations <= cold.stats.newton_iterations + extra);
        for (w, c) in rescued.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-9, "{w} vs {c}");
        }
    }

    #[test]
    fn a_hint_is_not_tried_from_an_infeasible_start() {
        let opts = BarrierOptions::default();
        let cons = [budget()];
        let f0 = split(1.0, 2.0);
        let cold = minimize(&f0, &cons, &[5.0, 5.0], &opts).unwrap();
        assert!(cold.stats.phase_one_iterations > 0);
        let hint = WarmStart {
            x: &cold.x,
            t: cold.final_t,
        };
        let warm = minimize_warm(&f0, &cons, &[5.0, 5.0], &opts, Some(hint)).unwrap();
        assert_eq!(warm.stats.warm, WarmOutcome::FellBack);
        assert_eq!(warm.stats.newton_iterations, cold.stats.newton_iterations);
        assert_eq!(warm.x, cold.x);
    }

    #[test]
    fn warm_start_rejects_malformed_hints() {
        let f0 = affine(1, &[(0, 1.0)], 0.0);
        let cons = [affine(1, &[(0, -1.0)], -1.0)];
        let opts = BarrierOptions::default();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let hint = WarmStart { x: &[0.0], t: bad };
            assert!(matches!(
                minimize_warm(&f0, &cons, &[0.0], &opts, Some(hint)),
                Err(SolverError::InvalidArgument(_))
            ));
        }
        let hint = WarmStart {
            x: &[0.0, 0.0],
            t: 1.0,
        };
        assert!(minimize_warm(&f0, &cons, &[0.0], &opts, Some(hint)).is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let f0 = affine(1, &[(0, 1.0)], 0.0);
        let cons = [affine(2, &[(0, 1.0), (1, 1.0)], 0.0)];
        assert!(minimize(&f0, &cons, &[0.0], &BarrierOptions::default()).is_err());
        assert!(minimize(&f0, &[], &[0.0, 0.0], &BarrierOptions::default()).is_err());
    }

    #[test]
    fn max_violation_reports_worst() {
        let cons = [affine(1, &[(0, 1.0)], -2.0), affine(1, &[(0, -1.0)], 0.5)];
        assert_eq!(max_violation(&cons, &[1.0]).unwrap(), -0.5);
        assert!(max_violation(&[], &[1.0]).is_none());
    }

    /// Terms with every offset lowered so the function is `-slack` at `x`.
    fn feasible_at(mut terms: dense::Terms, x: &[f64], slack: f64) -> dense::Terms {
        let shift = dense::twins(x.len(), &terms).1.value(x) + slack;
        for (_, b) in &mut terms {
            *b -= shift;
        }
        terms
    }

    /// `grad`/`hess` of the sparse centering objective against the dense
    /// assembly, to 1e-12 of the largest entry.
    fn assert_matches_dense(
        centering: &mut Centering<'_>,
        reference: &dense::BarrierObjective<'_>,
        x: &[f64],
    ) -> std::result::Result<(), TestCaseError> {
        let (mut g, mut h) = (vec![0.0; x.len()], centering.hessian());
        let v = centering.eval(x, &mut g, &mut h);
        prop_assert_eq!(centering.value(x), v);
        let want = reference.value(x);
        prop_assert!(
            (v - want).abs() <= 1e-12 * want.abs().max(1.0),
            "{v} vs {want}"
        );
        let want = reference.gradient(x);
        let scale = vec_ops::norm_inf(&want).max(1.0);
        for (a, b) in g.iter().zip(&want) {
            prop_assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b}");
        }
        let gap = dense::lower_triangle_gap(&h.to_lower(), &reference.hessian(x));
        prop_assert!(gap <= 1e-12, "Hessian gap {gap:e}");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn fused_assembly_matches_the_dense_barrier_objective(
            objective in dense::arb_case(),
            raw in collection::vec((dense::arb_case(), 1e-6..2.0_f64), 1..5),
            t in 0.5..1e6_f64,
        ) {
            let (objective_terms, x) = objective;
            let n = x.len();
            // Every function over the objective's variables: drop columns
            // that do not exist there.
            let fit = |terms: dense::Terms| -> dense::Terms {
                terms
                    .into_iter()
                    .map(|(e, b)| (e.into_iter().map(|(c, v)| (c % n, v)).collect(), b))
                    .collect()
            };
            let constraint_terms: Vec<_> = raw
                .into_iter()
                .map(|((terms, _), slack)| feasible_at(fit(terms), &x, slack))
                .collect();
            let (f0, f0_dense) = dense::twins(n, &objective_terms);
            let (sparse, reference): (Vec<_>, Vec<_>) =
                constraint_terms.iter().map(|c| dense::twins(n, c)).unzip();
            let refs: Vec<&dyn dense::Objective> =
                reference.iter().map(|c| c as &dyn dense::Objective).collect();
            let mut centering = Centering::new(&f0, &sparse);
            centering.t = t;
            let reference = dense::BarrierObjective { t, f0: &f0_dense, constraints: &refs };
            assert_matches_dense(&mut centering, &reference, &x)?;
        }

        #[test]
        fn phase_one_diagonal_bounds_match_dense_affine_bounds(
            raw in collection::vec(dense::arb_case(), 1..4),
            offsets in collection::vec(-3.0..3.0_f64, 6),
            t in 0.5..1e4_f64,
        ) {
            let n = raw[0].1.len();
            let x0 = raw[0].1.clone();
            let x: Vec<f64> = x0.iter().zip(&offsets).map(|(c, d)| c + d).collect();
            let constraint_terms: Vec<dense::Terms> = raw
                .into_iter()
                .map(|(terms, _)| {
                    terms
                        .into_iter()
                        .map(|(e, b)| (e.into_iter().map(|(c, v)| (c % n, v)).collect(), b))
                        .collect()
                })
                .collect();
            let worst = constraint_terms
                .iter()
                .map(|c| dense::twins(n, c).1.value(&x))
                .fold(f64::NEG_INFINITY, f64::max);
            let mut z = x.clone();
            z.push((worst + 0.5).max(-0.5));

            // Sparse: lifted constraints, bounds folded into the objective.
            let lifted: Vec<LogSumExp> = constraint_terms
                .iter()
                .map(|c| dense::twins(n, c).0.minus_slack())
                .collect();
            let objective = affine(n + 1, &[(n, 1.0)], 0.0);
            let mut centering = Centering::new(&objective, &lifted);
            centering.phase_one_centre = Some(&x0);
            centering.t = t;

            // Dense: the same constraints plus 2n + 1 affine bounds.
            let mut all: Vec<Box<dyn dense::Objective>> = Vec::new();
            for c in &constraint_terms {
                let with_slack: Vec<_> = c
                    .iter()
                    .map(|(e, b)| {
                        let mut e = e.clone();
                        e.push((n, -1.0));
                        (e, *b)
                    })
                    .collect();
                all.push(Box::new(dense::twins(n + 1, &with_slack).1));
            }
            let unit = |j: usize, sign: f64| {
                let mut a = vec![0.0; n + 1];
                a[j] = sign;
                a
            };
            all.push(Box::new(dense::Affine { a: unit(n, -1.0), b: -1.0 }));
            for j in 0..n {
                all.push(Box::new(dense::Affine { a: unit(j, 1.0), b: -(x0[j] + PHASE_ONE_BOX) }));
                all.push(Box::new(dense::Affine { a: unit(j, -1.0), b: x0[j] - PHASE_ONE_BOX }));
            }
            let refs: Vec<&dyn dense::Objective> = all.iter().map(|c| c.as_ref()).collect();
            prop_assert_eq!(refs.len(), centering.num_constraints());
            let f0_dense = dense::Affine { a: unit(n, 1.0), b: 0.0 };
            let reference = dense::BarrierObjective { t, f0: &f0_dense, constraints: &refs };
            assert_matches_dense(&mut centering, &reference, &z)?;
        }
    }

    /// The programs the REF mechanisms build, in log space over `agents x
    /// resources` bundle variables (agent-major, as `ref-core` lays them
    /// out).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        /// Weighted Nash welfare under capacity constraints alone.
        Capacity,
        /// Max-min: one more variable `t`, last, and a level monomial
        /// `t <= U_i(x_i)` per agent.
        Levels,
        /// Capacity plus an envy row per ordered pair and a
        /// sharing-incentive row per agent.
        Fairness,
        /// The capacity program's phase I: every row gains the slack, last.
        PhaseOne,
    }

    /// A program of one of the shapes with elasticities `a[i * resources +
    /// r]`, as terms whose offsets put constraint `i` at `-slack(i)` at `x`.
    fn ref_shaped(
        shape: Shape,
        (agents, resources): (usize, usize),
        a: &[f64],
        x: &[f64],
        slack: impl Fn(usize) -> f64,
    ) -> (dense::Terms, Vec<dense::Terms>) {
        let bundle = agents * resources;
        let own = |i: usize, sign: f64| -> Vec<(usize, f64)> {
            (0..resources)
                .map(|r| (i * resources + r, sign * a[i * resources + r]))
                .collect()
        };
        let objective = match shape {
            Shape::Levels => vec![(vec![(bundle, -1.0)], 0.0)],
            _ => vec![((0..agents).flat_map(|i| own(i, -1.0)).collect(), 0.0)],
        };
        let mut constraints: Vec<dense::Terms> = (0..resources)
            .map(|r| {
                (0..agents)
                    .map(|i| (vec![(i * resources + r, 1.0)], 0.0))
                    .collect()
            })
            .collect();
        for i in 0..agents {
            match shape {
                Shape::Levels => {
                    let mut row = own(i, -1.0);
                    row.push((bundle, 1.0));
                    constraints.push(vec![(row, 0.0)]);
                }
                Shape::Fairness => {
                    for j in (0..agents).filter(|&j| j != i) {
                        let mut row = own(i, -1.0);
                        row.extend(
                            (0..resources).map(|r| (j * resources + r, a[i * resources + r])),
                        );
                        constraints.push(vec![(row, 0.0)]);
                    }
                    constraints.push(vec![(own(i, -1.0), 0.0)]);
                }
                Shape::Capacity | Shape::PhaseOne => {}
            }
        }
        let constraints = constraints
            .into_iter()
            .enumerate()
            .map(|(i, c)| feasible_at(c, x, slack(i)))
            .collect();
        (objective, constraints)
    }

    /// The sparse centering problem of a [`ref_shaped`] program and the
    /// dense one it is checked against, both at `x` (for phase I: at `x`
    /// with the slack variable appended, the box centred on `x`).
    struct Twins {
        x: Vec<f64>,
        centre: Option<Vec<f64>>,
        f0: LogSumExp,
        constraints: Vec<LogSumExp>,
        f0_dense: Box<dyn dense::Objective>,
        dense: Vec<Box<dyn dense::Objective>>,
    }

    impl Twins {
        fn new(
            shape: Shape,
            size: (usize, usize),
            a: &[f64],
            x: &[f64],
            slack: impl Fn(usize) -> f64,
        ) -> Twins {
            let (objective, constraints) = ref_shaped(shape, size, a, x, slack);
            let n = x.len();
            if shape != Shape::PhaseOne {
                let (f0, f0_dense) = dense::twins(n, &objective);
                let (sparse, reference): (Vec<_>, Vec<_>) =
                    constraints.iter().map(|c| dense::twins(n, c)).unzip();
                return Twins {
                    x: x.to_vec(),
                    centre: None,
                    f0,
                    constraints: sparse,
                    f0_dense: Box::new(f0_dense),
                    dense: reference
                        .into_iter()
                        .map(|c| Box::new(c) as Box<dyn dense::Objective>)
                        .collect(),
                };
            }
            // Phase I: f_i(x) - s with s = 0.5 clears every constraint (the
            // slacks are positive); bounds as explicit affine constraints
            // on the dense side.
            let mut z = x.to_vec();
            z.push(0.5);
            let unit = |j: usize, sign: f64| {
                let mut e = vec![0.0; n + 1];
                e[j] = sign;
                e
            };
            let mut all: Vec<Box<dyn dense::Objective>> = Vec::new();
            for c in &constraints {
                let with_slack: dense::Terms = c
                    .iter()
                    .map(|(e, b)| {
                        let mut e = e.clone();
                        e.push((n, -1.0));
                        (e, *b)
                    })
                    .collect();
                all.push(Box::new(dense::twins(n + 1, &with_slack).1));
            }
            all.push(Box::new(dense::Affine {
                a: unit(n, -1.0),
                b: -1.0,
            }));
            for j in 0..n {
                all.push(Box::new(dense::Affine {
                    a: unit(j, 1.0),
                    b: -(x[j] + PHASE_ONE_BOX),
                }));
                all.push(Box::new(dense::Affine {
                    a: unit(j, -1.0),
                    b: x[j] - PHASE_ONE_BOX,
                }));
            }
            Twins {
                x: z,
                centre: Some(x.to_vec()),
                f0: affine(n + 1, &[(n, 1.0)], 0.0),
                constraints: constraints
                    .iter()
                    .map(|c| dense::twins(n, c).0.minus_slack())
                    .collect(),
                f0_dense: Box::new(dense::Affine {
                    a: unit(n, 1.0),
                    b: 0.0,
                }),
                dense: all,
            }
        }

        fn centering(&self, t: f64) -> Centering<'_> {
            let mut centering = Centering::new(&self.f0, &self.constraints);
            centering.phase_one_centre = self.centre.as_deref();
            centering.t = t;
            centering
        }

        /// The structured Newton step at `t` beside the dense Cholesky
        /// step (`None` where round-off has cost the dense Hessian its
        /// definiteness), with the Hessian and right-hand side `-grad` the
        /// dense step solved. With `independent` those come from the dense
        /// per-constraint assembly, which the structured one is checked
        /// against on the way; without, they are the structured assembly
        /// written out — next to the boundary the two evaluate a slack of
        /// 1e-9 to seven digits each, and only the solves are compared.
        #[allow(clippy::type_complexity)]
        fn steps(
            &self,
            t: f64,
            independent: bool,
        ) -> std::result::Result<(Vec<f64>, Matrix, Vec<f64>, Option<Vec<f64>>), TestCaseError>
        {
            let mut centering = self.centering(t);
            let mut ws = Workspace::new(&centering);
            ws.newton_step(&mut centering, &self.x).unwrap();
            let (h, b): (Matrix, Vec<f64>) = if independent {
                let refs: Vec<&dyn dense::Objective> =
                    self.dense.iter().map(|c| c.as_ref()).collect();
                let reference = dense::BarrierObjective {
                    t,
                    f0: self.f0_dense.as_ref(),
                    constraints: &refs,
                };
                assert_matches_dense(&mut centering, &reference, &self.x)?;
                let b = reference.gradient(&self.x).iter().map(|g| -g).collect();
                (reference.hessian(&self.x), b)
            } else {
                let (mut g, mut h) = (vec![0.0; self.x.len()], centering.hessian());
                centering.eval(&self.x, &mut g, &mut h);
                let lower = h.to_lower();
                let h = Matrix::from_fn(g.len(), g.len(), |i, j| lower[(i.max(j), i.min(j))]);
                (h, g.iter().map(|g| -g).collect())
            };
            let want =
                crate::cholesky::dense::factor(&h).map(|l| crate::cholesky::dense::solve(&l, &b));
            Ok((ws.step.clone(), h, b, want))
        }
    }

    /// `||H d - b||` relative to `||H|| ||d|| + ||b||`, in the max norm
    /// (`||H||` as the largest row sum).
    fn relative_residual(h: &Matrix, d: &[f64], b: &[f64]) -> f64 {
        let hd = h.matvec(d).unwrap();
        let residual = hd
            .iter()
            .zip(b)
            .fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()));
        let norm = (0..h.rows())
            .map(|i| h.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max);
        residual / (norm * vec_ops::norm_inf(d) + vec_ops::norm_inf(b))
    }

    const SHAPES: [Shape; 4] = [
        Shape::Capacity,
        Shape::Levels,
        Shape::Fairness,
        Shape::PhaseOne,
    ];

    /// Variables of a shape over `agents x resources` bundles.
    fn dim(shape: Shape, (agents, resources): (usize, usize)) -> usize {
        agents * resources + usize::from(shape == Shape::Levels)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn structured_step_matches_the_dense_cholesky_step_on_ref_shaped_programs(
            shape in 0usize..4,
            agents in 2usize..=7,
            resources in 1usize..=3,
            a in collection::vec(0.05..1.0_f64, 21),
            x in collection::vec(-2.0..1.0_f64, 22),
            slacks in collection::vec(1e-3..4.0_f64, 64),
            t in 0.5..1e6_f64,
        ) {
            // Slacks from 1e-3 to 4: coefficients c = w1 - w2 of both signs.
            let (shape, size) = (SHAPES[shape], (agents, resources));
            let x = &x[..dim(shape, size)];
            let twins = Twins::new(shape, size, &a, x, |i| slacks[i % slacks.len()]);
            let (got, _, _, want) = twins.steps(t, true)?;
            let want = want.expect("positive definite");
            let scale = vec_ops::norm_inf(&want);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() <= 1e-9 * scale, "{g} vs {w} ({scale:e})");
            }
        }

        #[test]
        fn structured_step_is_as_good_as_the_dense_one_at_the_end_of_the_path(
            shape in 0usize..4,
            agents in 2usize..=7,
            resources in 1usize..=3,
            a in collection::vec(0.05..1.0_f64, 21),
            x in collection::vec(-2.0..1.0_f64, 22),
            exponents in collection::vec(0.0..9.0_f64, 64),
            t in 1e3..1e9_f64,
        ) {
            // Slacks down to 1e-9, where w1 / w2 is 1e9 and the dense step
            // is itself only good to cond * eps: hold both to one residual
            // bound instead of to each other.
            let (shape, size) = (SHAPES[shape], (agents, resources));
            let x = &x[..dim(shape, size)];
            let slack = |i: usize| 10f64.powf(-exponents[i % exponents.len()]);
            let twins = Twins::new(shape, size, &a, x, slack);
            let (got, h, b, want) = twins.steps(t, false)?;
            for (name, d) in [("structured", Some(&got)), ("dense", want.as_ref())] {
                let Some(d) = d else { continue };
                let residual = relative_residual(&h, d, &b);
                prop_assert!(residual <= 1e-9, "{name} step leaves {residual:e}");
                prop_assert!(vec_ops::dot(&b, d) > 0.0, "{name} step is not a descent direction");
            }
        }
    }

    #[test]
    fn a_constraint_at_minus_one_and_one_beyond_it_enter_with_c_zero_and_negative() {
        // Levels shape: every variable has curvature from its level
        // monomial, so the capacity rows can sit anywhere. Resource 0 is
        // held almost entirely by agent 0 — the other terms vanish against
        // 1 in the sum — which puts that constraint at f = -1 exactly;
        // resource 1 sits at f = -2.5.
        let (agents, resources) = (5, 2);
        let a: Vec<f64> = (0..10).map(|k| 0.1 + 0.08 * k as f64).collect();
        let mut x: Vec<f64> = (0..11).map(|k| -0.5 - 0.1 * k as f64).collect();
        for i in 1..agents {
            x[i * resources] = x[0] - 40.0 - i as f64;
        }
        let slack = |i: usize| if i == 1 { 2.5 } else { 0.7 };
        let mut twins = Twins::new(Shape::Levels, (agents, resources), &a, &x, slack);
        let pinned: dense::Terms = (0..agents)
            .map(|i| (vec![(i * resources, 1.0)], -1.0 - x[0]))
            .collect();
        let (sparse, reference) = dense::twins(x.len(), &pinned);
        assert_eq!(sparse.value(&x, &mut Vec::new()), -1.0);
        twins.constraints[0] = sparse;
        twins.dense[0] = Box::new(reference);

        let mut centering = twins.centering(7.0);
        let (mut g, mut h) = (vec![0.0; x.len()], centering.hessian());
        centering.eval(&x, &mut g, &mut h);
        assert_eq!(h.rank(), 2);
        assert_eq!(h.column(0).0, 0.0);
        assert!(h.column(1).0 < 0.0, "{}", h.column(1).0);
        let (got, _, _, want) = twins.steps(7.0, true).unwrap();
        let want = want.expect("positive definite");
        let scale = vec_ops::norm_inf(&want);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * scale, "{g} vs {w} ({scale:e})");
        }
    }

    #[test]
    fn hessian_structure_of_the_three_program_shapes_at_48_by_2() {
        let size = (48, 2);
        let a: Vec<f64> = (0..96)
            .map(|k| 0.1 + 0.8 * f64::from(k % 16) / 16.0)
            .collect();
        let structure = |shape: Shape| {
            let x = vec![-1.0; dim(shape, size)];
            let twins = Twins::new(shape, size, &a, &x, |_| 0.5);
            let h = twins.centering(1.0).hessian();
            (h.s().stored(), h.rank())
        };
        // Max welfare: a diagonal, the two capacity rows' g g^T kept apart.
        assert_eq!(structure(Shape::Capacity), (96, 2));
        // Equal slowdown: 48 blocks of 2 x 2 from the level monomials plus
        // the dense row of the level variable, which is last — an arrow,
        // so the factor fills nothing.
        assert_eq!(structure(Shape::Levels), (48 * 3 + 48 * 2 + 1, 2));
        // With fairness an envy row couples every pair of agents: the
        // envelope is the whole triangle, and adding the capacity rows'
        // g g^T into it costs nothing.
        assert_eq!(structure(Shape::Fairness), (96 * 97 / 2, 0));
        // Phase I of max welfare: the slack is last, an arrow again.
        assert_eq!(structure(Shape::PhaseOne), (96 + 97, 2));
        // A program small enough that two extra solves cost more than a
        // filled triangle keeps everything in S.
        let x = vec![-1.0; 4];
        let small = Twins::new(Shape::Capacity, (2, 2), &a, &x, |_| 0.5);
        let h = small.centering(1.0).hessian();
        assert_eq!((h.s().stored(), h.rank()), (8, 0));
    }
}

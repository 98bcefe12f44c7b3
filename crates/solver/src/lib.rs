//! # ref-solver
//!
//! Structured linear algebra and convex optimization for the REF
//! (Resource Elasticity Fairness) reproduction — the from-scratch
//! stand-in for the Matlab + CVX toolchain used in the paper's evaluation.
//!
//! The crate provides three layers:
//!
//! 1. **Linear algebra** — incremental least squares
//!    ([`UpdatableLstsq`], Givens rows into a packed triangle), on which
//!    `ref-core` fits log-linearized Cobb-Douglas utilities (Eq. 16 of
//!    the paper), in one batch and one observation at a time alike; and,
//!    inside the Newton step, a Cholesky factorization in envelope
//!    storage and a `k x k` capacitance system eliminated in place. No
//!    dense `n x n` matrix is stored anywhere.
//! 2. **Smooth convex minimization** — damped Newton over sparse
//!    log-sum-exp functions and the log-barrier interior-point method
//!    built on it ([`barrier`]). The caller supplies a strictly feasible
//!    start; there is no phase I, and any other start is refused with
//!    [`SolverError::StartNotInterior`].
//! 3. **Geometric programming** — [`gp::GeometricProgram`] in standard form
//!    (posynomial objective and constraints over positive variables), the
//!    formulation the paper uses for Nash-welfare and equal-slowdown
//!    allocation (§4.5, footnote 2).
//!
//! # Examples
//!
//! Fit a line with least squares, one observation at a time:
//!
//! ```
//! use ref_solver::UpdatableLstsq;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ls = UpdatableLstsq::new(2);
//! for (t, y) in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)] {
//!     ls.append(&[1.0, t], y)?;
//! }
//! assert!((ls.solve()?.coefficients()[1] - 2.0).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```
//!
//! Solve a geometric program (maximize `x y` under a budget):
//!
//! ```
//! use ref_solver::gp::{GeometricProgram, Monomial, Posynomial};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let xy = Monomial::new(1.0, vec![1.0, 1.0])?;
//! let mut gp = GeometricProgram::minimize(2, xy.reciprocal().into())?;
//! gp.add_constraint(Posynomial::from_monomials(vec![
//!     Monomial::new(0.5, vec![1.0, 0.0])?,
//!     Monomial::new(0.5, vec![0.0, 1.0])?,
//! ])?)?;
//! let sol = gp.solve(&[0.5, 0.5])?;
//! assert!((sol.x[0] - 1.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Numeric kernels index several arrays with one loop variable; iterator
// rewrites obscure the linear-algebra correspondence.
#![allow(clippy::needless_range_loop)]
// Checks like `!(t_max >= t0)` are deliberate: they also reject NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod barrier;
mod cholesky;
mod error;
mod func;
pub mod gp;
mod newton;
pub mod tol;
pub mod update;
pub mod vec_ops;

// The Householder least-squares reference the incremental factor is
// checked against, and the dense matrices, as rows, the tests build
// inputs and references with. They live with the tests; no library path
// runs them.
#[cfg(test)]
#[path = "../tests/support/lstsq.rs"]
mod lstsq;
#[cfg(test)]
#[path = "../tests/support/matrix_ops.rs"]
mod matrix_ops;
#[cfg(test)]
#[path = "../tests/support/qr.rs"]
mod qr;

pub use error::{Result, SolverError};
pub use update::{FitQuality, UpdatableFit, UpdatableLstsq};

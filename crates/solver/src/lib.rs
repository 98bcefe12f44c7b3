//! # ref-solver
//!
//! Dense linear algebra and convex optimization for the REF (Resource
//! Elasticity Fairness) reproduction — the from-scratch stand-in for the
//! Matlab + CVX toolchain used in the paper's evaluation.
//!
//! The crate provides three layers:
//!
//! 1. **Linear algebra** — [`Matrix`], Householder QR ([`Qr`]), Cholesky
//!    factorization in envelope storage ([`Cholesky`]), incremental least
//!    squares ([`UpdatableLstsq`]) and ordinary least squares
//!    ([`lstsq::fit`]), which `ref-core` uses to fit log-linearized
//!    Cobb-Douglas utilities (Eq. 16 of the paper).
//! 2. **Smooth convex minimization** — damped Newton over sparse
//!    log-sum-exp functions and the log-barrier interior-point method
//!    built on it ([`barrier`]).
//! 3. **Geometric programming** — [`gp::GeometricProgram`] in standard form
//!    (posynomial objective and constraints over positive variables), the
//!    formulation the paper uses for Nash-welfare and equal-slowdown
//!    allocation (§4.5, footnote 2).
//!
//! # Examples
//!
//! Fit a line with least squares:
//!
//! ```
//! use ref_solver::{lstsq, Matrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let x = lstsq::design_with_intercept(&[vec![0.0], vec![1.0], vec![2.0]])?;
//! let fit = lstsq::fit(&x, &[1.0, 3.0, 5.0])?;
//! assert!((fit.coefficients()[1] - 2.0).abs() < 1e-10);
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
pub mod lstsq;
mod lu;
mod matrix;
mod newton;
mod qr;
pub mod tol;
pub mod update;
pub mod vec_ops;

pub use cholesky::Cholesky;
pub use error::{Result, SolverError};
pub use matrix::Matrix;
pub use qr::Qr;
pub use update::{FitQuality, UpdatableFit, UpdatableLstsq};

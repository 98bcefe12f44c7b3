//! # ref-solver
//!
//! Dense linear algebra and convex optimization for the REF (Resource
//! Elasticity Fairness) reproduction — the from-scratch stand-in for the
//! Matlab + CVX toolchain used in the paper's evaluation.
//!
//! The crate provides three layers:
//!
//! 1. **Linear algebra** — [`Matrix`], Householder QR ([`Qr`]), Cholesky
//!    factorization in envelope storage ([`Cholesky`],
//!    [`cholesky::Envelope`]), LU with partial pivoting ([`lu::Lu`])
//!    and ordinary least squares
//!    ([`lstsq::fit`]), which `ref-core` uses to fit log-linearized
//!    Cobb-Douglas utilities (Eq. 16 of the paper).
//! 2. **Smooth convex minimization** — the [`func::Objective`] trait,
//!    damped Newton ([`newton::minimize`]) and a log-barrier interior-point
//!    method ([`barrier::minimize`]).
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
pub mod cholesky;
pub mod error;
pub mod func;
pub mod gp;
pub mod lstsq;
pub mod lu;
pub mod matrix;
pub mod newton;
pub mod qr;
pub mod tol;
pub mod update;
pub mod vec_ops;

pub use cholesky::Cholesky;
pub use error::{Result, SolverError};
pub use matrix::Matrix;
pub use qr::Qr;
pub use update::{FitQuality, UpdatableFit, UpdatableLstsq};

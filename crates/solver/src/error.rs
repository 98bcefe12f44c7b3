//! Error types shared by every solver in this crate.

use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra and optimization routines.
///
/// Every fallible public function in this crate returns
/// [`Result<T, SolverError>`](crate::Result). The variants distinguish
/// structural problems (shape mismatches), numerical failures (singular or
/// non-positive-definite systems), and optimization outcomes (a start
/// outside the interior, iteration limits).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolverError {
    /// Operand shapes are incompatible, e.g. a right-hand side whose length
    /// is not the system's dimension. Carries a human-readable description
    /// of the mismatch.
    ShapeMismatch(String),
    /// A factorization required a (numerically) non-singular matrix.
    Singular,
    /// Cholesky factorization failed: the matrix is not positive definite.
    NotPositiveDefinite,
    /// The least-squares system is rank deficient.
    RankDeficient,
    /// An interior-point solve was started from a point that does not clear
    /// every constraint by the feasibility margin. It is refused before any
    /// Newton step: the caller owns the start, and there is no phase I.
    StartNotInterior {
        /// The largest constraint value (log space) at the start.
        worst: f64,
    },
    /// The iteration limit was reached before convergence.
    MaxIterationsExceeded {
        /// The limit that was exhausted.
        iterations: usize,
    },
    /// An argument was outside its documented domain (e.g. a non-positive
    /// value where positivity is required).
    InvalidArgument(String),
    /// A numerical operation produced a non-finite value.
    NonFinite(String),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            SolverError::Singular => write!(f, "matrix is singular to working precision"),
            SolverError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            SolverError::RankDeficient => write!(f, "least-squares system is rank deficient"),
            SolverError::StartNotInterior { worst } => {
                write!(
                    f,
                    "start point is not strictly feasible: a constraint is at {worst:e}"
                )
            }
            SolverError::MaxIterationsExceeded { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            SolverError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            SolverError::NonFinite(msg) => write!(f, "non-finite value encountered: {msg}"),
        }
    }
}

impl Error for SolverError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SolverError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let e = SolverError::MaxIterationsExceeded { iterations: 3 };
        assert_eq!(e.to_string(), "no convergence after 3 iterations");
        let e = SolverError::ShapeMismatch("2x3 * 2x2".to_string());
        assert!(e.to_string().contains("2x3 * 2x2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolverError>();
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn Error> = Box::new(SolverError::Singular);
        assert!(e.to_string().contains("singular"));
    }
}

//! Leontief (perfect-complement) utilities, the preference domain of prior
//! multi-resource fairness work (DRF), included for comparison (Eq. 8,
//! Fig. 4 of the paper).

use crate::error::{CoreError, Result};
use crate::utility::Utility;

/// A Leontief utility `u(x) = min_r (x_r / d_r)` for a demand vector `d`.
///
/// Resources are perfect complements: extra quantity of one resource beyond
/// the demanded ratio adds no utility, and the marginal rate of
/// substitution is zero or infinite — the L-shaped indifference curves of
/// the paper's Fig. 4.
///
/// # Examples
///
/// The paper's example `u = min(x, 2y)` is demand vector `(1, 0.5)`:
///
/// ```
/// use ref_core::utility::{Leontief, Utility};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Leontief::new(vec![1.0, 0.5])?;
/// // (4 GB/s, 2 MB) and the disproportionate (10 GB/s, 2 MB) tie.
/// assert_eq!(u.value_slice(&[4.0, 2.0]), u.value_slice(&[10.0, 2.0]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Leontief {
    demands: Vec<f64>,
}

impl Leontief {
    /// Creates `min_r (x_r / d_r)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `demands` is empty or any
    /// demand is not strictly positive and finite.
    pub fn new(demands: Vec<f64>) -> Result<Leontief> {
        if demands.is_empty() {
            return Err(CoreError::InvalidArgument(
                "demand vector needs at least one resource".to_string(),
            ));
        }
        if let Some(d) = demands.iter().find(|d| !(d.is_finite() && **d > 0.0)) {
            return Err(CoreError::InvalidArgument(format!(
                "demands must be finite and positive, got {d}"
            )));
        }
        Ok(Leontief { demands })
    }
}

impl Utility for Leontief {
    fn num_resources(&self) -> usize {
        self.demands.len()
    }

    fn value_slice(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.demands.len(), "bundle dimension mismatch");
        x.iter()
            .zip(&self.demands)
            .map(|(xi, di)| xi / di)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Bundle;

    #[test]
    fn validation() {
        assert!(Leontief::new(vec![]).is_err());
        assert!(Leontief::new(vec![0.0]).is_err());
        assert!(Leontief::new(vec![-1.0]).is_err());
        assert!(Leontief::new(vec![2.0, 1.0]).is_ok());
    }

    #[test]
    fn paper_example_no_substitution() {
        // u = min(x, 2y): extra bandwidth or cache beyond the 2:1 ratio is
        // wasted (§3.3).
        let u = Leontief::new(vec![1.0, 0.5]).unwrap();
        let base = u.value_slice(&[4.0, 2.0]);
        assert_eq!(base, 4.0);
        assert_eq!(u.value_slice(&[10.0, 2.0]), base);
        assert_eq!(u.value_slice(&[4.0, 10.0]), base);
    }

    #[test]
    fn preference_relations() {
        let u = Leontief::new(vec![1.0, 1.0]).unwrap();
        let a = Bundle::new(vec![2.0, 2.0]).unwrap();
        let b = Bundle::new(vec![1.0, 5.0]).unwrap();
        assert!(u.prefers(&a, &b));
    }

    #[test]
    fn zero_bundle_zero_utility() {
        let u = Leontief::new(vec![1.0, 2.0]).unwrap();
        assert_eq!(u.value_slice(&[0.0, 4.0]), 0.0);
    }
}

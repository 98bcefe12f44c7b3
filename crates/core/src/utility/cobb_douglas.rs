//! Cobb-Douglas utility functions (Eq. 1 of the paper).

use crate::error::{CoreError, Result};
use crate::resource::{Bundle, ResourceVec};
use crate::utility::Utility;

/// A Cobb-Douglas utility `u(x) = a0 * prod_r x_r^{a_r}`.
///
/// The exponents `a_r` are the agent's *resource elasticities*: if
/// `a_r > a_s` the agent benefits more from resource `r` than from `s`.
/// [`rescaled`](CobbDouglas::rescaled) normalizes them to sum to one
/// (Eq. 12), which makes the function homogeneous of degree one — the
/// property the proportional-elasticity mechanism's fairness proof relies
/// on (§4.2).
///
/// # Examples
///
/// The paper's running example, user 1: `u1 = x^0.6 y^0.4`.
///
/// ```
/// use ref_core::resource::Bundle;
/// use ref_core::utility::{CobbDouglas, Utility};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u1 = CobbDouglas::new(1.0, vec![0.6, 0.4])?;
/// let b = Bundle::new(vec![18.0, 4.0])?;
/// assert!(u1.value(&b) > 0.0);
/// // Marginal rate of substitution, Eq. 9: (0.6/0.4) * (y/x).
/// let mrs = u1.mrs(&b, 0, 1)?;
/// assert!((mrs - 1.5 * (4.0 / 18.0)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CobbDouglas {
    scale: f64,
    elasticities: ResourceVec,
}

impl CobbDouglas {
    /// Creates `a0 * prod_r x_r^{a_r}`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `scale` is not strictly
    /// positive and finite, `elasticities` is empty, any elasticity is
    /// negative or non-finite, or all elasticities are zero.
    pub fn new(scale: f64, elasticities: Vec<f64>) -> Result<CobbDouglas> {
        CobbDouglas::checked(scale, ResourceVec::from_vec(elasticities))
    }

    /// `a0 * prod_r x_r^{a_r}` over the elasticities `iter` yields,
    /// checked as [`CobbDouglas::new`] checks them.
    pub(crate) fn from_elasticities(
        scale: f64,
        iter: impl IntoIterator<Item = f64>,
    ) -> Result<CobbDouglas> {
        CobbDouglas::checked(scale, iter.into_iter().collect())
    }

    fn checked(scale: f64, elasticities: ResourceVec) -> Result<CobbDouglas> {
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(CoreError::InvalidArgument(format!(
                "scale must be positive and finite, got {scale}"
            )));
        }
        if elasticities.is_empty() {
            return Err(CoreError::InvalidArgument(
                "utility needs at least one resource".to_string(),
            ));
        }
        if let Some(a) = elasticities.iter().find(|a| !(a.is_finite() && **a >= 0.0)) {
            return Err(CoreError::InvalidArgument(format!(
                "elasticities must be finite and non-negative, got {a}"
            )));
        }
        if elasticities.iter().all(|a| *a == 0.0) {
            return Err(CoreError::InvalidArgument(
                "at least one elasticity must be positive".to_string(),
            ));
        }
        Ok(CobbDouglas {
            scale,
            elasticities,
        })
    }

    /// Creates a utility with elasticities already summing to one.
    ///
    /// # Errors
    ///
    /// As [`CobbDouglas::new`], plus [`CoreError::InvalidArgument`] if the
    /// elasticities do not sum to 1 within `1e-9`.
    pub fn normalized(elasticities: Vec<f64>) -> Result<CobbDouglas> {
        let sum: f64 = elasticities.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(CoreError::InvalidArgument(format!(
                "normalized elasticities must sum to 1, got {sum}"
            )));
        }
        CobbDouglas::new(1.0, elasticities)
    }

    /// The multiplicative scale `a0`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The raw elasticities.
    pub fn elasticities(&self) -> &[f64] {
        &self.elasticities
    }

    /// Elasticity of resource `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn elasticity(&self, r: usize) -> f64 {
        self.elasticities[r]
    }

    /// Sum of elasticities (degree of homogeneity).
    pub fn elasticity_sum(&self) -> f64 {
        self.elasticities.iter().sum()
    }

    /// The re-scaled utility of Eq. 12: elasticities divided by their sum
    /// (so they sum to one) and unit scale.
    ///
    /// The re-scaled function is homogeneous of degree one, i.e.
    /// `u(k x) = k u(x)`.
    pub fn rescaled(&self) -> CobbDouglas {
        let sum = self.elasticity_sum();
        CobbDouglas {
            scale: 1.0,
            elasticities: self.elasticities.iter().map(|a| a / sum).collect(),
        }
    }

    /// Whether the elasticities sum to one within `tol`.
    pub fn is_homogeneous_degree_one(&self, tol: f64) -> bool {
        (self.elasticity_sum() - 1.0).abs() <= tol
    }

    /// Marginal rate of substitution of resource `r` for resource `s` at
    /// `x` (Eq. 9): `(a_r / a_s) * (x_s / x_r)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `r` or `s` is out of
    /// range, `a_s` is zero, or `x_r` is zero.
    pub fn mrs(&self, x: &Bundle, r: usize, s: usize) -> Result<f64> {
        let n = self.elasticities.len();
        if r >= n || s >= n || x.num_resources() != n {
            return Err(CoreError::InvalidArgument(format!(
                "resource indices ({r}, {s}) out of range for {n} resources"
            )));
        }
        let (ar, as_) = (self.elasticities[r], self.elasticities[s]);
        if as_ == 0.0 {
            return Err(CoreError::InvalidArgument(
                "marginal rate of substitution undefined for zero denominator elasticity"
                    .to_string(),
            ));
        }
        if x.get(r) == 0.0 {
            return Err(CoreError::InvalidArgument(
                "marginal rate of substitution undefined at zero holdings".to_string(),
            ));
        }
        Ok((ar / as_) * (x.get(s) / x.get(r)))
    }

    /// For a two-resource utility at level `u`, the quantity `y` of
    /// resource 1 that keeps utility constant given `x` of resource 0 —
    /// one point of an indifference curve (Fig. 3).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] unless the utility covers
    /// exactly two resources, both elasticities are positive, and `x` and
    /// `level` are positive.
    pub fn indifference_y(&self, level: f64, x: f64) -> Result<f64> {
        if self.elasticities.len() != 2 {
            return Err(CoreError::InvalidArgument(
                "indifference curves implemented for two resources".to_string(),
            ));
        }
        let (a, b) = (self.elasticities[0], self.elasticities[1]);
        if a <= 0.0 || b <= 0.0 {
            return Err(CoreError::InvalidArgument(
                "indifference curve needs positive elasticities".to_string(),
            ));
        }
        if !(x > 0.0 && level > 0.0) {
            return Err(CoreError::InvalidArgument(
                "indifference curve defined for positive level and quantity".to_string(),
            ));
        }
        // u = a0 x^a y^b  =>  y = (u / (a0 x^a))^(1/b)
        Ok((level / (self.scale * x.powf(a))).powf(1.0 / b))
    }
}

impl Utility for CobbDouglas {
    fn num_resources(&self) -> usize {
        self.elasticities.len()
    }

    fn value_slice(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.elasticities.len(),
            "bundle dimension mismatch"
        );
        self.scale
            * x.iter()
                .zip(self.elasticities.iter())
                .map(|(&xi, &ai)| xi.powf(ai))
                .product::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u1() -> CobbDouglas {
        CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap()
    }

    #[test]
    fn validation() {
        assert!(CobbDouglas::new(0.0, vec![1.0]).is_err());
        assert!(CobbDouglas::new(1.0, vec![]).is_err());
        assert!(CobbDouglas::new(1.0, vec![-0.1]).is_err());
        assert!(CobbDouglas::new(1.0, vec![0.0, 0.0]).is_err());
        assert!(CobbDouglas::new(1.0, vec![0.0, 0.5]).is_ok());
        assert!(CobbDouglas::normalized(vec![0.6, 0.4]).is_ok());
        assert!(CobbDouglas::normalized(vec![0.6, 0.6]).is_err());
    }

    #[test]
    fn paper_example_values() {
        // u1 = x^0.6 y^0.4 at the REF allocation (18, 4) and equal split
        // (12, 6): the allocation must be preferred (sharing incentive).
        let u = u1();
        let alloc = Bundle::new(vec![18.0, 4.0]).unwrap();
        let equal = Bundle::new(vec![12.0, 6.0]).unwrap();
        assert!(u.value(&alloc) > u.value(&equal));
    }

    #[test]
    fn zero_resource_zero_utility() {
        let u = u1();
        let b = Bundle::new(vec![0.0, 5.0]).unwrap();
        assert_eq!(u.value(&b), 0.0);
    }

    #[test]
    fn rescaling_normalizes() {
        let u = CobbDouglas::new(2.5, vec![0.3, 0.9]).unwrap();
        let r = u.rescaled();
        assert!(r.is_homogeneous_degree_one(1e-12));
        assert_eq!(r.scale(), 1.0);
        assert!((r.elasticity(0) - 0.25).abs() < 1e-12);
        assert!((r.elasticity(1) - 0.75).abs() < 1e-12);
        // Rescaling preserves the preference order.
        let a = Bundle::new(vec![2.0, 8.0]).unwrap();
        let b = Bundle::new(vec![6.0, 2.0]).unwrap();
        assert_eq!(u.prefers(&a, &b), r.prefers(&a, &b));
    }

    #[test]
    fn homogeneity_of_rescaled() {
        let u = CobbDouglas::new(3.0, vec![0.5, 1.5]).unwrap().rescaled();
        let x = Bundle::new(vec![2.0, 3.0]).unwrap();
        let kx = Bundle::new(vec![4.0, 6.0]).unwrap();
        assert!((u.value(&kx) - 2.0 * u.value(&x)).abs() < 1e-12);
    }

    #[test]
    fn mrs_matches_eq9() {
        let u = u1();
        let b = Bundle::new(vec![6.0, 8.0]).unwrap();
        let mrs = u.mrs(&b, 0, 1).unwrap();
        assert!((mrs - 1.5 * (8.0 / 6.0)).abs() < 1e-12);
        // MRS in the other direction is the reciprocal.
        let inv = u.mrs(&b, 1, 0).unwrap();
        assert!((mrs * inv - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mrs_error_cases() {
        let u = CobbDouglas::new(1.0, vec![0.5, 0.0]).unwrap();
        let b = Bundle::new(vec![1.0, 1.0]).unwrap();
        assert!(u.mrs(&b, 0, 1).is_err()); // zero denominator elasticity
        assert!(u.mrs(&b, 0, 5).is_err()); // out of range
        let z = Bundle::new(vec![0.0, 1.0]).unwrap();
        let u2 = CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap();
        assert!(u2.mrs(&z, 0, 1).is_err()); // zero holdings
    }

    #[test]
    fn indifference_curve_holds_level() {
        let u = u1();
        let level = u.value_slice(&[6.0, 8.0]);
        for x in [1.0, 3.0, 6.0, 12.0, 20.0] {
            let y = u.indifference_y(level, x).unwrap();
            let v = u.value_slice(&[x, y]);
            assert!((v - level).abs() < 1e-9 * level, "x={x}");
        }
    }

    #[test]
    fn indifference_curve_error_cases() {
        let u3 = CobbDouglas::new(1.0, vec![0.3, 0.3, 0.4]).unwrap();
        assert!(u3.indifference_y(1.0, 1.0).is_err());
        assert!(u1().indifference_y(0.0, 1.0).is_err());
        assert!(u1().indifference_y(1.0, 0.0).is_err());
    }

    #[test]
    fn diminishing_marginal_returns() {
        // With elasticity < 1, utility gains per added unit shrink.
        let u = CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap();
        let base = |x: f64| u.value_slice(&[x, 4.0]);
        let gain1 = base(2.0) - base(1.0);
        let gain2 = base(3.0) - base(2.0);
        assert!(gain2 < gain1);
    }
}

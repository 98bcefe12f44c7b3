//! Resource bundles, capacities and allocations.
//!
//! The paper's model (§3): a system has `R` divisible resources with total
//! capacities `C = (C_1, ..., C_R)`; an allocation gives agent `i` a bundle
//! `x_i = (x_i1, ..., x_iR)`. These types carry the invariants the
//! mechanisms rely on (positive capacities, non-negative bundles, matching
//! dimensions).

use std::fmt;
use std::ops::Deref;

use crate::error::{CoreError, Result};

/// One value per resource, stored inline for one or two resources and on
/// the heap from three up.
///
/// Every agent's bundle and utility is one of these, and a market keeps
/// thousands of them alive across epochs, so the common two-resource case
/// (bandwidth and cache) must not cost a heap block each. The type stays
/// exactly as large as a `Vec<f64>` (24 bytes): a wider inline buffer would
/// grow every `MarketEvent` a service journals.
#[derive(Clone)]
pub(crate) enum ResourceVec {
    One(f64),
    Two([f64; 2]),
    Heap(Vec<f64>),
}

impl ResourceVec {
    /// Takes over `values`, moving one or two of them inline.
    pub(crate) fn from_vec(values: Vec<f64>) -> ResourceVec {
        match values[..] {
            [a] => ResourceVec::One(a),
            [a, b] => ResourceVec::Two([a, b]),
            _ => ResourceVec::Heap(values),
        }
    }
}

impl Deref for ResourceVec {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self {
            ResourceVec::One(a) => std::slice::from_ref(a),
            ResourceVec::Two(ab) => ab,
            ResourceVec::Heap(values) => values,
        }
    }
}

/// Collects without an intermediate `Vec`: the heap is touched only once a
/// third value arrives.
impl FromIterator<f64> for ResourceVec {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> ResourceVec {
        let mut iter = iter.into_iter();
        let Some(a) = iter.next() else {
            return ResourceVec::Heap(Vec::new());
        };
        let Some(b) = iter.next() else {
            return ResourceVec::One(a);
        };
        let Some(c) = iter.next() else {
            return ResourceVec::Two([a, b]);
        };
        let mut values = Vec::with_capacity(3 + iter.size_hint().0);
        values.extend([a, b, c]);
        values.extend(iter);
        ResourceVec::Heap(values)
    }
}

impl fmt::Debug for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for ResourceVec {
    fn eq(&self, other: &ResourceVec) -> bool {
        **self == **other
    }
}

/// A bundle of resource quantities held by one agent.
///
/// # Examples
///
/// ```
/// use ref_core::resource::Bundle;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let b = Bundle::new(vec![18.0, 4.0])?;
/// assert_eq!(b.get(0), 18.0);
/// assert_eq!(b.num_resources(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bundle(ResourceVec);

impl Bundle {
    /// Creates a bundle from per-resource quantities.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `quantities` is empty or
    /// contains a negative or non-finite entry.
    pub fn new(quantities: Vec<f64>) -> Result<Bundle> {
        Bundle::checked(ResourceVec::from_vec(quantities))
    }

    /// A bundle of the quantities `iter` yields, checked as
    /// [`Bundle::new`] checks them.
    pub(crate) fn from_quantities(iter: impl IntoIterator<Item = f64>) -> Result<Bundle> {
        Bundle::checked(iter.into_iter().collect())
    }

    fn checked(quantities: ResourceVec) -> Result<Bundle> {
        if quantities.is_empty() {
            return Err(CoreError::InvalidArgument(
                "bundle must cover at least one resource".to_string(),
            ));
        }
        if let Some(q) = quantities.iter().find(|q| !(q.is_finite() && **q >= 0.0)) {
            return Err(CoreError::InvalidArgument(format!(
                "bundle quantities must be finite and non-negative, got {q}"
            )));
        }
        Ok(Bundle(quantities))
    }

    /// Quantity of resource `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn get(&self, r: usize) -> f64 {
        self.0[r]
    }

    /// Number of resources.
    pub fn num_resources(&self) -> usize {
        self.0.len()
    }

    /// Quantities as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }
}

impl AsRef<[f64]> for Bundle {
    fn as_ref(&self) -> &[f64] {
        &self.0
    }
}

/// Total system capacities, one per resource.
///
/// # Examples
///
/// The paper's running example: 24 GB/s of bandwidth and 12 MB of cache.
///
/// ```
/// use ref_core::resource::Capacity;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = Capacity::new(vec![24.0, 12.0])?;
/// let split = c.equal_split(2);
/// assert_eq!(split.as_slice(), &[12.0, 6.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Capacity(Vec<f64>);

impl Capacity {
    /// Creates a capacity vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `totals` is empty or any
    /// entry is not strictly positive and finite.
    pub fn new(totals: Vec<f64>) -> Result<Capacity> {
        if totals.is_empty() {
            return Err(CoreError::InvalidArgument(
                "capacity must cover at least one resource".to_string(),
            ));
        }
        if let Some(t) = totals.iter().find(|t| !(t.is_finite() && **t > 0.0)) {
            return Err(CoreError::InvalidArgument(format!(
                "capacities must be finite and positive, got {t}"
            )));
        }
        Ok(Capacity(totals))
    }

    /// Capacity of resource `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn get(&self, r: usize) -> f64 {
        self.0[r]
    }

    /// Number of resources.
    pub fn num_resources(&self) -> usize {
        self.0.len()
    }

    /// Capacities as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// The equal-division bundle `C / n` (the sharing-incentive reference
    /// point, Eq. 3 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn equal_split(&self, n: usize) -> Bundle {
        assert!(n > 0, "cannot split among zero agents");
        Bundle(self.0.iter().map(|c| c / n as f64).collect())
    }

    /// The whole machine as a bundle (used for weighted utility `u(C)`).
    pub fn as_bundle(&self) -> Bundle {
        Bundle(self.0.iter().copied().collect())
    }
}

impl AsRef<[f64]> for Capacity {
    fn as_ref(&self) -> &[f64] {
        &self.0
    }
}

/// An allocation: one bundle per agent over a shared capacity.
///
/// # Examples
///
/// ```
/// use ref_core::resource::{Allocation, Bundle, Capacity};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let capacity = Capacity::new(vec![24.0, 12.0])?;
/// let alloc = Allocation::new(
///     vec![Bundle::new(vec![18.0, 4.0])?, Bundle::new(vec![6.0, 8.0])?],
///     &capacity,
/// )?;
/// assert_eq!(alloc.num_agents(), 2);
/// assert!(alloc.is_exhaustive(&capacity, 1e-9));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    bundles: Vec<Bundle>,
}

impl Allocation {
    /// Creates an allocation, checking dimensions and capacity feasibility.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if there are no agents, any
    /// bundle's dimension differs from the capacity's, or total usage of a
    /// resource exceeds capacity beyond round-off (`1e-9` relative).
    pub fn new(bundles: Vec<Bundle>, capacity: &Capacity) -> Result<Allocation> {
        if bundles.is_empty() {
            return Err(CoreError::InvalidArgument(
                "allocation needs at least one agent".to_string(),
            ));
        }
        let r = capacity.num_resources();
        for (i, b) in bundles.iter().enumerate() {
            if b.num_resources() != r {
                return Err(CoreError::InvalidArgument(format!(
                    "bundle {i} covers {} resources, capacity covers {r}",
                    b.num_resources()
                )));
            }
        }
        for res in 0..r {
            let used: f64 = bundles.iter().map(|b| b.get(res)).sum();
            let cap = capacity.get(res);
            if used > cap * (1.0 + 1e-9) {
                return Err(CoreError::InvalidArgument(format!(
                    "resource {res} over-allocated: {used} > {cap}"
                )));
            }
        }
        Ok(Allocation { bundles })
    }

    /// The bundle of agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bundle(&self, i: usize) -> &Bundle {
        &self.bundles[i]
    }

    /// All bundles in agent order.
    pub fn bundles(&self) -> &[Bundle] {
        &self.bundles
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.bundles.len()
    }

    /// Number of resources.
    pub fn num_resources(&self) -> usize {
        self.bundles[0].num_resources()
    }

    /// Each agent's share of each resource as a fraction of capacity,
    /// `shares[i][r] = x_ir / C_r`.
    pub fn shares(&self, capacity: &Capacity) -> Vec<Vec<f64>> {
        self.bundles
            .iter()
            .map(|b| {
                (0..b.num_resources())
                    .map(|r| b.get(r) / capacity.get(r))
                    .collect()
            })
            .collect()
    }

    /// Whether every resource is fully allocated within `tol` relative
    /// slack (a necessary condition for Pareto efficiency under strictly
    /// monotone utilities).
    pub fn is_exhaustive(&self, capacity: &Capacity, tol: f64) -> bool {
        (0..self.num_resources()).all(|r| {
            let used: f64 = self.bundles.iter().map(|b| b.get(r)).sum();
            used >= capacity.get(r) * (1.0 - tol)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_or_two_values_are_stored_inline() {
        for n in 0..6 {
            let values: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let collected: ResourceVec = values.iter().copied().collect();
            for v in [collected, ResourceVec::from_vec(values.clone())] {
                assert_eq!(*v, values[..]);
                assert_eq!(matches!(v, ResourceVec::Heap(_)), n == 0 || n > 2);
            }
        }
    }

    #[test]
    fn bundle_validation() {
        assert!(Bundle::new(vec![]).is_err());
        assert!(Bundle::new(vec![-1.0]).is_err());
        assert!(Bundle::new(vec![f64::NAN]).is_err());
        assert!(Bundle::new(vec![0.0, 1.0]).is_ok());
    }

    #[test]
    fn capacity_validation() {
        assert!(Capacity::new(vec![]).is_err());
        assert!(Capacity::new(vec![0.0]).is_err());
        assert!(Capacity::new(vec![f64::INFINITY]).is_err());
        assert!(Capacity::new(vec![24.0, 12.0]).is_ok());
    }

    #[test]
    fn equal_split_divides() {
        let c = Capacity::new(vec![24.0, 12.0]).unwrap();
        assert_eq!(c.equal_split(4).as_slice(), &[6.0, 3.0]);
        assert_eq!(c.as_bundle().as_slice(), &[24.0, 12.0]);
    }

    #[test]
    fn allocation_rejects_overcommit() {
        let c = Capacity::new(vec![10.0]).unwrap();
        let over = Allocation::new(
            vec![
                Bundle::new(vec![6.0]).unwrap(),
                Bundle::new(vec![5.0]).unwrap(),
            ],
            &c,
        );
        assert!(over.is_err());
    }

    #[test]
    fn allocation_rejects_dimension_mismatch() {
        let c = Capacity::new(vec![10.0, 10.0]).unwrap();
        let bad = Allocation::new(vec![Bundle::new(vec![1.0]).unwrap()], &c);
        assert!(bad.is_err());
    }

    #[test]
    fn allocation_allows_slack_and_reports_it() {
        let c = Capacity::new(vec![10.0]).unwrap();
        let a = Allocation::new(vec![Bundle::new(vec![4.0]).unwrap()], &c).unwrap();
        assert!(!a.is_exhaustive(&c, 1e-9));
        let b = Allocation::new(vec![Bundle::new(vec![10.0]).unwrap()], &c).unwrap();
        assert!(b.is_exhaustive(&c, 1e-9));
    }

    #[test]
    fn shares_normalize_by_capacity() {
        let c = Capacity::new(vec![24.0, 12.0]).unwrap();
        let a = Allocation::new(
            vec![
                Bundle::new(vec![18.0, 4.0]).unwrap(),
                Bundle::new(vec![6.0, 8.0]).unwrap(),
            ],
            &c,
        )
        .unwrap();
        let s = a.shares(&c);
        assert!((s[0][0] - 0.75).abs() < 1e-12);
        assert!((s[1][1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn round_off_tolerated() {
        let c = Capacity::new(vec![1.0]).unwrap();
        let a = Allocation::new(vec![Bundle::new(vec![1.0 + 1e-12]).unwrap()], &c);
        assert!(a.is_ok());
    }
}

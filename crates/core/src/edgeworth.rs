//! Edgeworth-box geometry for two agents and two resources (Figs. 1–7).
//!
//! The box visualizes every feasible division of two resources between two
//! agents: agent 1's origin at the lower-left, agent 2's at the upper-right.
//! This module computes the geometric objects the paper plots: indifference
//! curves, envy-free regions, the contract curve (all Pareto-efficient
//! allocations), the sharing-incentive region, and their intersection — the
//! fair set.

use crate::error::{CoreError, Result};
use crate::resource::Capacity;
use crate::utility::{CobbDouglas, Utility};

/// A point in the box, expressed as agent 1's holdings `(x, y)` of the two
/// resources; agent 2 implicitly holds the complement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxPoint {
    /// Agent 1's quantity of resource 0.
    pub x: f64,
    /// Agent 1's quantity of resource 1.
    pub y: f64,
}

/// An Edgeworth box for two Cobb-Douglas agents over two resources.
///
/// # Examples
///
/// The paper's running example:
///
/// ```
/// use ref_core::edgeworth::EdgeworthBox;
/// use ref_core::resource::Capacity;
/// use ref_core::utility::CobbDouglas;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let eb = EdgeworthBox::new(
///     CobbDouglas::new(1.0, vec![0.6, 0.4])?,
///     CobbDouglas::new(1.0, vec![0.2, 0.8])?,
///     Capacity::new(vec![24.0, 12.0])?,
/// )?;
/// let ref_point = eb.ref_allocation();
/// assert!((ref_point.x - 18.0).abs() < 1e-12);
/// assert!(eb.is_on_contract_curve(ref_point, 1e-9));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeworthBox {
    u1: CobbDouglas,
    u2: CobbDouglas,
    capacity: Capacity,
}

impl EdgeworthBox {
    /// Creates a box for two agents.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] unless both utilities and the
    /// capacity cover exactly two resources.
    pub fn new(u1: CobbDouglas, u2: CobbDouglas, capacity: Capacity) -> Result<EdgeworthBox> {
        if capacity.num_resources() != 2
            || u1.elasticities().len() != 2
            || u2.elasticities().len() != 2
        {
            return Err(CoreError::InvalidArgument(
                "the Edgeworth box is defined for exactly two resources".to_string(),
            ));
        }
        Ok(EdgeworthBox { u1, u2, capacity })
    }

    /// Agent 1's utility function.
    pub fn u1(&self) -> &CobbDouglas {
        &self.u1
    }

    /// Agent 2's utility function.
    pub fn u2(&self) -> &CobbDouglas {
        &self.u2
    }

    /// Agent 2's bundle at a point (the complement of agent 1's).
    pub fn complement(&self, p: BoxPoint) -> (f64, f64) {
        (self.capacity.get(0) - p.x, self.capacity.get(1) - p.y)
    }

    /// Both agents' utilities at a point.
    pub fn utilities(&self, p: BoxPoint) -> (f64, f64) {
        let (x2, y2) = self.complement(p);
        (
            self.u1.value_slice(&[p.x, p.y]),
            self.u2.value_slice(&[x2, y2]),
        )
    }

    /// Whether agent 1 does not envy agent 2 at `p` (Eq. 6).
    pub fn envy_free_for_1(&self, p: BoxPoint) -> bool {
        let (x2, y2) = self.complement(p);
        self.u1.value_slice(&[p.x, p.y]) >= self.u1.value_slice(&[x2, y2])
    }

    /// Whether agent 2 does not envy agent 1 at `p` (Eq. 7).
    pub fn envy_free_for_2(&self, p: BoxPoint) -> bool {
        let (x2, y2) = self.complement(p);
        self.u2.value_slice(&[x2, y2]) >= self.u2.value_slice(&[p.x, p.y])
    }

    /// Whether both sharing-incentive constraints hold at `p` (Eqs. 4–5).
    pub fn sharing_incentives(&self, p: BoxPoint) -> bool {
        let equal = self.capacity.equal_split(2);
        let (x2, y2) = self.complement(p);
        self.u1.value_slice(&[p.x, p.y]) >= self.u1.value(&equal)
            && self.u2.value_slice(&[x2, y2]) >= self.u2.value(&equal)
    }

    /// The `y` on the contract curve at a given `x` for agent 1 (tangency
    /// condition, Eq. 10), or `None` at the degenerate edges.
    ///
    /// Setting the two agents' marginal rates of substitution equal gives a
    /// closed form: with `k1 = a1/b1` and `k2 = a2/b2`,
    /// `y = k2 * Cy * x / (k1 * (Cx - x) + k2 * x)`.
    pub(crate) fn contract_curve_y(&self, x: f64) -> Option<f64> {
        let (cx, cy) = (self.capacity.get(0), self.capacity.get(1));
        if !(x > 0.0 && x < cx) {
            return None;
        }
        let k1 = self.u1.elasticity(0) / self.u1.elasticity(1);
        let k2 = self.u2.elasticity(0) / self.u2.elasticity(1);
        if !k1.is_finite() || !k2.is_finite() {
            return None;
        }
        let denom = k1 * (cx - x) + k2 * x;
        if denom <= 0.0 {
            return None;
        }
        Some(k2 * cy * x / denom)
    }

    /// Samples `n` points of the contract curve (Fig. 5), excluding the
    /// origins.
    pub fn contract_curve(&self, n: usize) -> Vec<BoxPoint> {
        let cx = self.capacity.get(0);
        (1..=n)
            .filter_map(|i| {
                let x = cx * i as f64 / (n + 1) as f64;
                self.contract_curve_y(x).map(|y| BoxPoint { x, y })
            })
            .collect()
    }

    /// Whether `p` is on the contract curve within relative tolerance.
    pub fn is_on_contract_curve(&self, p: BoxPoint, tol: f64) -> bool {
        match self.contract_curve_y(p.x) {
            Some(y) => (y - p.y).abs() <= tol * self.capacity.get(1).max(1.0),
            None => false,
        }
    }

    /// The fair set (Fig. 6): contract-curve points that are envy-free for
    /// both agents; with `require_si`, also inside the sharing-incentive
    /// region (Fig. 7).
    pub fn fair_set(&self, n: usize, require_si: bool) -> Vec<BoxPoint> {
        self.contract_curve(n)
            .into_iter()
            .filter(|&p| self.envy_free_for_1(p) && self.envy_free_for_2(p))
            .filter(|&p| !require_si || self.sharing_incentives(p))
            .collect()
    }

    /// The REF proportional-elasticity allocation as a box point.
    ///
    /// # Panics
    ///
    /// Never panics for a validly constructed box.
    pub fn ref_allocation(&self) -> BoxPoint {
        use crate::mechanism::{Mechanism, ProportionalElasticity};
        let alloc = ProportionalElasticity
            .allocate(&[self.u1.clone(), self.u2.clone()], &self.capacity)
            .expect("box construction validated the inputs");
        BoxPoint {
            x: alloc.bundle(0).get(0),
            y: alloc.bundle(0).get(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Bundle;

    fn paper_box() -> EdgeworthBox {
        EdgeworthBox::new(
            CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap(),
            CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap(),
            Capacity::new(vec![24.0, 12.0]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn construction_requires_two_resources() {
        let bad = EdgeworthBox::new(
            CobbDouglas::new(1.0, vec![0.5]).unwrap(),
            CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap(),
            Capacity::new(vec![1.0, 1.0]).unwrap(),
        );
        assert!(bad.is_err());
    }

    #[test]
    fn complement_adds_to_capacity() {
        let eb = paper_box();
        let p = BoxPoint { x: 6.0, y: 8.0 };
        let (x2, y2) = eb.complement(p);
        assert_eq!((x2, y2), (18.0, 4.0));
    }

    #[test]
    fn midpoint_and_corners_are_envy_free() {
        // Paper §3.2: the midpoint and the two corners are always EF.
        let eb = paper_box();
        for p in [
            BoxPoint { x: 12.0, y: 6.0 },
            BoxPoint { x: 24.0, y: 0.0 },
            BoxPoint { x: 0.0, y: 12.0 },
        ] {
            assert!(eb.envy_free_for_1(p), "{p:?}");
            assert!(eb.envy_free_for_2(p), "{p:?}");
        }
    }

    #[test]
    fn contract_curve_equalizes_mrs() {
        let eb = paper_box();
        for p in eb.contract_curve(17) {
            let b1 = Bundle::new(vec![p.x, p.y]).unwrap();
            let (x2, y2) = eb.complement(p);
            let b2 = Bundle::new(vec![x2, y2]).unwrap();
            let m1 = eb.u1().mrs(&b1, 0, 1).unwrap();
            let m2 = eb.u2().mrs(&b2, 0, 1).unwrap();
            assert!((m1 - m2).abs() < 1e-9 * m1.max(m2), "{p:?}");
        }
    }

    #[test]
    fn contract_curve_bows_below_diagonal_for_paper_preferences() {
        // User 1 values bandwidth more: along the curve user 1 holds
        // relatively more x than y.
        let eb = paper_box();
        let mid = eb.contract_curve_y(12.0).unwrap();
        assert!(mid < 6.0, "curve at x=12 is {mid}");
    }

    #[test]
    fn ref_allocation_is_fair_and_on_curve() {
        let eb = paper_box();
        let p = eb.ref_allocation();
        assert!((p.x - 18.0).abs() < 1e-12);
        assert!((p.y - 4.0).abs() < 1e-12);
        assert!(eb.is_on_contract_curve(p, 1e-9));
        assert!(eb.envy_free_for_1(p) && eb.envy_free_for_2(p));
        assert!(eb.sharing_incentives(p));
    }

    #[test]
    fn fair_set_is_nonempty_and_shrinks_with_si() {
        let eb = paper_box();
        let fair = eb.fair_set(400, false);
        let fair_si = eb.fair_set(400, true);
        assert!(!fair_si.is_empty());
        assert!(fair_si.len() <= fair.len());
        for p in &fair_si {
            assert!(eb.sharing_incentives(*p));
        }
    }

    #[test]
    fn utilities_at_origin_corners_are_zero() {
        let eb = paper_box();
        let (u1, _) = eb.utilities(BoxPoint { x: 0.0, y: 0.0 });
        assert_eq!(u1, 0.0);
        let (_, u2) = eb.utilities(BoxPoint { x: 24.0, y: 12.0 });
        assert_eq!(u2, 0.0);
    }
}

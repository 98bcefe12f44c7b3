//! Welfare metrics (§4.5, Eq. 17).
//!
//! The evaluation compares mechanisms by *weighted system throughput*: each
//! agent's utility when sharing divided by its utility when given the whole
//! machine, summed over agents. This mirrors the weighted-progress metric
//! of prior multiprogram studies, expressed in utility space.

use crate::resource::{Allocation, Bundle, Capacity};
use crate::utility::{CobbDouglas, Utility};

/// Weighted utility `U_i(x) = u_i(x) / u_i(C)` — performance when sharing
/// normalized by performance when alone (the complement of slowdown).
///
/// # Examples
///
/// ```
/// use ref_core::resource::{Bundle, Capacity};
/// use ref_core::utility::CobbDouglas;
/// use ref_core::welfare::weighted_utility;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = CobbDouglas::new(1.0, vec![0.5, 0.5])?;
/// let c = Capacity::new(vec![24.0, 12.0])?;
/// let half = Bundle::new(vec![12.0, 6.0])?;
/// // Homogeneous degree one: half the machine gives half the utility.
/// assert!((weighted_utility(&u, &half, &c) - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn weighted_utility(agent: &CobbDouglas, x: &Bundle, capacity: &Capacity) -> f64 {
    agent.value(x) / agent.value(&capacity.as_bundle())
}

/// Weighted system throughput `sum_i U_i(x_i)` (Eq. 17).
///
/// # Panics
///
/// Panics if `agents.len()` differs from the allocation's agent count.
pub fn weighted_system_throughput(
    agents: &[CobbDouglas],
    allocation: &Allocation,
    capacity: &Capacity,
) -> f64 {
    assert_eq!(
        agents.len(),
        allocation.num_agents(),
        "one utility per agent"
    );
    agents
        .iter()
        .zip(allocation.bundles())
        .map(|(a, x)| weighted_utility(a, x, capacity))
        .sum()
}

/// Nash social welfare `prod_i U_i(x_i)`.
///
/// # Panics
///
/// Panics if `agents.len()` differs from the allocation's agent count.
pub fn nash_welfare(agents: &[CobbDouglas], allocation: &Allocation, capacity: &Capacity) -> f64 {
    assert_eq!(
        agents.len(),
        allocation.num_agents(),
        "one utility per agent"
    );
    agents
        .iter()
        .zip(allocation.bundles())
        .map(|(a, x)| weighted_utility(a, x, capacity))
        .product()
}

/// Egalitarian welfare `min_i U_i(x_i)`.
///
/// # Panics
///
/// Panics if `agents.len()` differs from the allocation's agent count.
pub fn egalitarian_welfare(
    agents: &[CobbDouglas],
    allocation: &Allocation,
    capacity: &Capacity,
) -> f64 {
    assert_eq!(
        agents.len(),
        allocation.num_agents(),
        "one utility per agent"
    );
    agents
        .iter()
        .zip(allocation.bundles())
        .map(|(a, x)| weighted_utility(a, x, capacity))
        .fold(f64::INFINITY, f64::min)
}

/// An upper bound on the egalitarian welfare of *every* feasible
/// allocation, from one non-negative multiplier per agent (not all zero).
///
/// Weak duality for max-min: with `lambda` scaled to sum to one,
/// `min_i U_i <= prod_i U_i^{lambda_i}`, and for Cobb-Douglas utilities the
/// right-hand side is a weighted Nash welfare whose maximum over feasible
/// allocations has the closed form `x_ir / C_r = d_ir / D_r` with
/// `d_ir = lambda_i a_ir`, `D_r = sum_i d_ir`. So
/// `min_i U_i(x_i) <= exp(sum_r sum_i d_ir ln(d_ir / D_r))` whatever the
/// capacities and utility scales. The bound is tight at the multipliers of
/// the max-min optimum, which makes it a certificate: an allocation whose
/// [`egalitarian_welfare`] reaches the bound for *some* `lambda` is
/// optimal, no solver consulted. (A barrier solver's central point hands
/// over good ones: `lambda_i` proportional to `1 / ln(U_i / t)` for its
/// level variable `t`.)
///
/// # Panics
///
/// Panics if `multipliers.len()` differs from `agents.len()`.
///
/// # Examples
///
/// ```
/// use ref_core::utility::CobbDouglas;
/// use ref_core::welfare::egalitarian_bound;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two identical agents can both reach half the machine, no more.
/// let agents = vec![CobbDouglas::new(1.0, vec![0.5, 0.5])?; 2];
/// assert!((egalitarian_bound(&agents, &[1.0, 1.0]) - 0.5).abs() < 1e-12);
/// // Other multipliers bound it too, less tightly.
/// assert!(egalitarian_bound(&agents, &[1.0, 3.0]) > 0.5);
/// # Ok(())
/// # }
/// ```
pub fn egalitarian_bound(agents: &[CobbDouglas], multipliers: &[f64]) -> f64 {
    assert_eq!(agents.len(), multipliers.len(), "one multiplier per agent");
    let total: f64 = multipliers.iter().sum();
    let resources = agents.first().map_or(0, CobbDouglas::num_resources);
    let mut log_bound = 0.0;
    for r in 0..resources {
        let demand = |i: usize| multipliers[i] / total * agents[i].elasticity(r);
        let all: f64 = (0..agents.len()).map(demand).sum();
        for d in (0..agents.len()).map(demand).filter(|&d| d > 0.0) {
            log_bound += d * (d / all).ln();
        }
    }
    log_bound.exp()
}

/// Certified distance of `allocation` from the max-min optimum:
/// `1 - egalitarian_welfare / egalitarian_bound`, the bound taken at the
/// multipliers `1 / ln(U_i / level)` that a `level` just under every
/// `U_i(x_i)` suggests — tight constraints weigh most. Zero (to round-off)
/// certifies the optimum; a barrier solver's central point at path
/// parameter `t`, given its own level variable, is within `m / t` of it
/// for `m` constraints. `f64::INFINITY` — no certificate — unless
/// `0 < level < U_i(x_i)` for every agent.
///
/// # Panics
///
/// Panics if `agents.len()` differs from the allocation's agent count.
pub fn egalitarian_gap(
    agents: &[CobbDouglas],
    allocation: &Allocation,
    capacity: &Capacity,
    level: f64,
) -> f64 {
    assert_eq!(
        agents.len(),
        allocation.num_agents(),
        "one utility per agent"
    );
    let utilities = agents
        .iter()
        .zip(allocation.bundles())
        .map(|(a, x)| weighted_utility(a, x, capacity));
    let multipliers: Vec<f64> = utilities.map(|u| 1.0 / (u / level).ln()).collect();
    if !multipliers.iter().all(|m| *m > 0.0 && m.is_finite()) {
        return f64::INFINITY;
    }
    1.0 - egalitarian_welfare(agents, allocation, capacity)
        / egalitarian_bound(agents, &multipliers)
}

/// The unfairness index of prior work: the ratio of the maximum to the
/// minimum weighted utility (1 means perfectly equal slowdowns).
///
/// # Panics
///
/// Panics if `agents.len()` differs from the allocation's agent count.
pub fn unfairness_index(
    agents: &[CobbDouglas],
    allocation: &Allocation,
    capacity: &Capacity,
) -> f64 {
    assert_eq!(
        agents.len(),
        allocation.num_agents(),
        "one utility per agent"
    );
    let us: Vec<f64> = agents
        .iter()
        .zip(allocation.bundles())
        .map(|(a, x)| weighted_utility(a, x, capacity))
        .collect();
    let max = us.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    let min = us.iter().fold(f64::INFINITY, |m, &v| m.min(v));
    max / min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{EqualShare, Mechanism, ProportionalElasticity};

    fn fixture() -> (Vec<CobbDouglas>, Capacity) {
        (
            vec![
                CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap(),
                CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap(),
            ],
            Capacity::new(vec![24.0, 12.0]).unwrap(),
        )
    }

    #[test]
    fn equal_split_of_homogeneous_agents_has_half_utilities() {
        let (agents, c) = fixture();
        let alloc = EqualShare.allocate(&agents, &c).unwrap();
        let t = weighted_system_throughput(&agents, &alloc, &c);
        assert!((t - 1.0).abs() < 1e-9, "throughput {t}");
        assert!((nash_welfare(&agents, &alloc, &c) - 0.25).abs() < 1e-9);
        assert!((egalitarian_welfare(&agents, &alloc, &c) - 0.5).abs() < 1e-9);
        assert!((unfairness_index(&agents, &alloc, &c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ref_beats_equal_split_throughput() {
        let (agents, c) = fixture();
        let equal = EqualShare.allocate(&agents, &c).unwrap();
        let fair = ProportionalElasticity.allocate(&agents, &c).unwrap();
        assert!(
            weighted_system_throughput(&agents, &fair, &c)
                > weighted_system_throughput(&agents, &equal, &c)
        );
    }

    #[test]
    fn weighted_utility_is_one_for_whole_machine() {
        let (agents, c) = fixture();
        let whole = c.as_bundle();
        for a in &agents {
            assert!((weighted_utility(a, &whole, &c) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn egalitarian_bound_holds_for_any_multipliers_and_is_tight_at_the_optimum() {
        // Mirror-image agents: the max-min optimum gives each 0.6 of the
        // resource it prefers, with equal multipliers.
        let agents = vec![
            CobbDouglas::new(2.0, vec![0.6, 0.4]).unwrap(),
            CobbDouglas::new(0.5, vec![0.4, 0.6]).unwrap(),
        ];
        let c = Capacity::new(vec![24.0, 12.0]).unwrap();
        let splits = [0.1, 0.4, 0.5, 0.6, 0.8];
        let mut best: f64 = 0.0;
        for s0 in splits {
            for s1 in splits {
                let bundles = vec![
                    Bundle::new(vec![24.0 * s0, 12.0 * s1]).unwrap(),
                    Bundle::new(vec![24.0 * (1.0 - s0), 12.0 * (1.0 - s1)]).unwrap(),
                ];
                let alloc = Allocation::new(bundles, &c).unwrap();
                let welfare = egalitarian_welfare(&agents, &alloc, &c);
                best = best.max(welfare);
                // Any feasible allocation's minimum sits under any bound.
                for lambda in [[1.0, 1.0], [0.2, 0.8], [5.0, 1.0], [0.0, 1.0]] {
                    let bound = egalitarian_bound(&agents, &lambda);
                    assert!(welfare <= bound * (1.0 + 1e-12), "{welfare} above {bound}");
                }
            }
        }
        let tight = egalitarian_bound(&agents, &[1.0, 1.0]);
        assert!((best - 0.6_f64.powf(0.6) * 0.4_f64.powf(0.4)).abs() < 1e-12);
        assert!((tight - best).abs() < 1e-12, "{best} vs {tight}");
        assert!(tight < egalitarian_bound(&agents, &[0.2, 0.8]));
        // Scale-free in the multipliers.
        assert!((tight - egalitarian_bound(&agents, &[7.0, 7.0])).abs() < 1e-15);

        // The gap certifies the optimum from a level just under it, finds
        // a worse allocation wanting, and refuses a level that is not
        // under every utility.
        let split = |s: f64| {
            let bundles = vec![
                Bundle::new(vec![24.0 * s, 12.0 * (1.0 - s)]).unwrap(),
                Bundle::new(vec![24.0 * (1.0 - s), 12.0 * s]).unwrap(),
            ];
            Allocation::new(bundles, &c).unwrap()
        };
        let gap = egalitarian_gap(&agents, &split(0.6), &c, best * (1.0 - 1e-9));
        assert!((0.0..1e-8).contains(&gap), "{gap}");
        assert!(egalitarian_gap(&agents, &split(0.5), &c, 0.499) > 0.01);
        assert_eq!(
            egalitarian_gap(&agents, &split(0.6), &c, best * 1.01),
            f64::INFINITY
        );
    }

    #[test]
    #[should_panic(expected = "one utility per agent")]
    fn mismatched_agents_panic() {
        let (agents, c) = fixture();
        let alloc = EqualShare.allocate(&agents, &c).unwrap();
        let _ = weighted_system_throughput(&agents[..1], &alloc, &c);
    }
}

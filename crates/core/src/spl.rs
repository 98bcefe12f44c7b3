//! Strategy-proofness in the large (§4.3 and Appendix A).
//!
//! Under proportional elasticity, a strategic agent who knows everyone
//! else's reports could mis-report elasticities `a'` to maximize its true
//! utility (Eq. 15). This module computes that best response numerically
//! and measures the gain from lying. The paper proves the gain vanishes as
//! the sum of other agents' elasticities grows; the
//! [`max_gain_from_lying`] experiment reproduces that trend and shows tens of
//! agents suffice in practice.

use crate::error::{CoreError, Result};
use crate::resource::Capacity;
use crate::utility::CobbDouglas;

/// Outcome of a best-response analysis for one strategic agent.
#[derive(Debug, Clone, PartialEq)]
pub struct LyingGain {
    /// The utility-maximizing (possibly dishonest) report, on the simplex.
    pub best_report: Vec<f64>,
    /// True utility when reporting truthfully.
    pub truthful_utility: f64,
    /// True utility under the best response.
    pub best_utility: f64,
}

impl LyingGain {
    /// Relative utility gain from lying, `best / truthful - 1`.
    pub fn relative_gain(&self) -> f64 {
        self.best_utility / self.truthful_utility - 1.0
    }

    /// Largest absolute deviation of the best report from the truthful
    /// (re-scaled) elasticities.
    pub fn report_deviation(&self, truthful: &[f64]) -> f64 {
        self.best_report
            .iter()
            .zip(truthful)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// True utility of agent `i` when it reports `report` and the sums of the
/// other agents' (re-scaled) elasticities are `others` (Eq. 15's inner
/// expression):
///
/// ```text
/// u(report) = prod_r ( report_r / (report_r + others_r) * C_r )^{alpha_r}
/// ```
fn utility_of_report(report: &[f64], truth: &[f64], others: &[f64], capacity: &[f64]) -> f64 {
    report
        .iter()
        .zip(others)
        .zip(capacity)
        .zip(truth)
        .map(|(((rep, oth), cap), tru)| (rep / (rep + oth) * cap).powf(*tru))
        .product()
}

/// Projects a vector onto the probability simplex (Duchi et al. algorithm),
/// with a small floor to keep reports strictly positive.
fn project_to_simplex(v: &[f64]) -> Vec<f64> {
    const FLOOR: f64 = 1e-9;
    let n = v.len();
    let mut sorted = v.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite reports"));
    let mut cum = 0.0;
    let mut theta = 0.0;
    for (k, &s) in sorted.iter().enumerate() {
        cum += s;
        let candidate = (cum - 1.0) / (k + 1) as f64;
        if s - candidate > 0.0 {
            theta = candidate;
        }
    }
    let mut p: Vec<f64> = v.iter().map(|x| (x - theta).max(FLOOR)).collect();
    let total: f64 = p.iter().sum();
    for x in &mut p {
        *x /= total;
    }
    let _ = n;
    p
}

/// Computes the best response of a strategic agent by projected gradient
/// ascent on the simplex of reports.
///
/// `truthful` are the agent's true re-scaled elasticities (summing to one),
/// `others[r]` is the sum of all other agents' re-scaled elasticities for
/// resource `r`, and `capacity` the totals.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] on dimension mismatches, empty
/// input, or if `truthful` does not lie on the simplex.
///
/// # Examples
///
/// With many competitors, lying does not pay (SPL):
///
/// ```
/// use ref_core::spl::best_response;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let truthful = [0.7, 0.3];
/// let others = [20.0, 20.0]; // large system
/// let gain = best_response(&truthful, &others, &[24.0, 12.0])?;
/// assert!(gain.relative_gain() < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn best_response(truthful: &[f64], others: &[f64], capacity: &[f64]) -> Result<LyingGain> {
    let r = truthful.len();
    if r == 0 || others.len() != r || capacity.len() != r {
        return Err(CoreError::InvalidArgument(
            "truthful, others and capacity must share a nonzero dimension".to_string(),
        ));
    }
    let sum: f64 = truthful.iter().sum();
    if (sum - 1.0).abs() > 1e-6 || truthful.iter().any(|a| *a < 0.0) {
        return Err(CoreError::InvalidArgument(
            "truthful elasticities must lie on the simplex".to_string(),
        ));
    }
    if others.iter().any(|o| !(o.is_finite() && *o >= 0.0))
        || capacity.iter().any(|c| !(c.is_finite() && *c > 0.0))
    {
        return Err(CoreError::InvalidArgument(
            "others must be non-negative and capacities positive".to_string(),
        ));
    }

    // Ascend log-utility: numerically gentler, same maximizer.
    // d/d rep_r log u = truth_r * others_r / (rep_r * (rep_r + others_r)).
    let truthful_utility = utility_of_report(truthful, truthful, others, capacity);
    let mut report = project_to_simplex(truthful);
    let mut best = report.clone();
    let mut best_value = utility_of_report(&report, truthful, others, capacity);
    let mut step = 0.1;
    for _ in 0..2_000 {
        let grad: Vec<f64> = report
            .iter()
            .zip(others)
            .zip(truthful)
            .map(|((rep, oth), tru)| {
                if *tru == 0.0 {
                    0.0
                } else {
                    tru * oth / (rep * (rep + oth))
                }
            })
            .collect();
        let stepped: Vec<f64> = report
            .iter()
            .zip(&grad)
            .map(|(rep, g)| rep + step * g)
            .collect();
        let candidate = project_to_simplex(&stepped);
        let value = utility_of_report(&candidate, truthful, others, capacity);
        if value > best_value {
            best_value = value;
            best = candidate.clone();
            report = candidate;
        } else {
            step *= 0.5;
            if step < 1e-12 {
                break;
            }
        }
    }
    Ok(LyingGain {
        best_report: best,
        truthful_utility,
        best_utility: best_value.max(truthful_utility),
    })
}

/// Finds the agent with the largest relative gain from lying among agents
/// whose re-scaled elasticities are given row-wise, and returns its index
/// (the first, on a tie) with its [`LyingGain`], so that the gain and the
/// report deviation describe the same agent.
///
/// Used to reproduce the paper's SPL experiment (64 agents with uniform
/// random elasticities): the returned gain should be negligible for large
/// systems and appreciable for very small ones.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for no agents or a row of the
/// wrong dimension, and propagates errors from [`best_response`].
pub fn max_gain_from_lying(
    elasticities: &[Vec<f64>],
    capacity: &Capacity,
) -> Result<(usize, LyingGain)> {
    if elasticities.is_empty() {
        return Err(CoreError::InvalidArgument(
            "need at least one agent".to_string(),
        ));
    }
    let r = capacity.num_resources();
    let mut totals = vec![0.0; r];
    for a in elasticities {
        if a.len() != r {
            return Err(CoreError::InvalidArgument(
                "elasticity rows must match the capacity dimension".to_string(),
            ));
        }
        for (t, v) in totals.iter_mut().zip(a) {
            *t += v;
        }
    }
    let mut winner: Option<(usize, LyingGain)> = None;
    for (i, a) in elasticities.iter().enumerate() {
        let others: Vec<f64> = totals.iter().zip(a).map(|(t, v)| t - v).collect();
        let gain = best_response(a, &others, capacity.as_slice())?;
        if winner
            .as_ref()
            .is_none_or(|(_, w)| gain.relative_gain() > w.relative_gain())
        {
            winner = Some((i, gain));
        }
    }
    Ok(winner.expect("at least one agent"))
}

/// Re-scales raw per-agent elasticities onto the simplex (Eq. 12), a
/// convenience for building SPL experiments from fitted utilities.
pub fn rescaled_rows(agents: &[CobbDouglas]) -> Vec<Vec<f64>> {
    agents
        .iter()
        .map(|a| a.rescaled().elasticities().to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_lands_on_simplex() {
        for v in [
            vec![0.5, 0.5],
            vec![2.0, -1.0],
            vec![0.1, 0.2, 0.3],
            vec![-5.0, -6.0],
        ] {
            let p = project_to_simplex(&v);
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{v:?} -> {p:?}");
            assert!(p.iter().all(|x| *x > 0.0));
        }
    }

    #[test]
    fn projection_is_identity_on_simplex_points() {
        let p = project_to_simplex(&[0.3, 0.7]);
        assert!((p[0] - 0.3).abs() < 1e-9);
        assert!((p[1] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn two_agent_system_rewards_lying() {
        // With a single competitor, the strategic agent can gain by
        // flattening its report toward the contested resource.
        let gain = best_response(&[0.9, 0.1], &[0.5, 0.5], &[24.0, 12.0]).unwrap();
        assert!(gain.relative_gain() > 0.01, "{}", gain.relative_gain());
        assert!(gain.report_deviation(&[0.9, 0.1]) > 0.05);
    }

    #[test]
    fn large_system_suppresses_lying() {
        let gain = best_response(&[0.9, 0.1], &[30.0, 30.0], &[24.0, 12.0]).unwrap();
        assert!(gain.relative_gain() < 1e-3, "{}", gain.relative_gain());
        assert!(gain.report_deviation(&[0.9, 0.1]) < 0.2);
    }

    #[test]
    fn gain_shrinks_monotonically_with_system_size() {
        let mut last = f64::INFINITY;
        for n in [1.0, 4.0, 16.0, 64.0] {
            let gain = best_response(&[0.7, 0.3], &[n * 0.5, n * 0.5], &[24.0, 12.0])
                .unwrap()
                .relative_gain();
            assert!(gain <= last + 1e-9, "gain {gain} after {last}");
            last = gain;
        }
    }

    #[test]
    fn max_gain_over_population() {
        let rows: Vec<Vec<f64>> = (0..32)
            .map(|i| {
                let a = 0.1 + 0.8 * (i as f64 / 31.0);
                vec![a, 1.0 - a]
            })
            .collect();
        let c = Capacity::new(vec![24.0, 12.0]).unwrap();
        let (winner, worst) = max_gain_from_lying(&rows, &c).unwrap();
        assert!(worst.relative_gain() < 0.01, "worst gain {worst:?}");
        // Every agent's own best response, against everyone else's reports:
        // the winner's is the one returned, and none gains more.
        for (i, row) in rows.iter().enumerate() {
            let others: Vec<f64> = (0..2)
                .map(|r| rows.iter().map(|row| row[r]).sum::<f64>() - row[r])
                .collect();
            let gain = best_response(row, &others, c.as_slice()).unwrap();
            assert!(i != winner || gain == worst, "agent {i}");
            assert!(gain.relative_gain() <= worst.relative_gain(), "agent {i}");
        }
    }

    #[test]
    fn input_validation() {
        assert!(best_response(&[], &[], &[]).is_err());
        assert!(best_response(&[0.5, 0.6], &[1.0, 1.0], &[1.0, 1.0]).is_err());
        assert!(best_response(&[0.5, 0.5], &[1.0], &[1.0, 1.0]).is_err());
        assert!(best_response(&[0.5, 0.5], &[1.0, 1.0], &[0.0, 1.0]).is_err());
        let c = Capacity::new(vec![1.0]).unwrap();
        assert!(max_gain_from_lying(&[], &c).is_err());
        assert!(max_gain_from_lying(&[vec![0.5, 0.5]], &c).is_err());
    }

    #[test]
    fn rescaled_rows_sum_to_one() {
        let agents = vec![
            CobbDouglas::new(1.0, vec![0.3, 0.9]).unwrap(),
            CobbDouglas::new(2.0, vec![1.0, 1.0]).unwrap(),
        ];
        for row in rescaled_rows(&agents) {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }
}

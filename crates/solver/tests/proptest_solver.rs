//! Property-based tests for the numerical kernels, and for the
//! Householder least-squares reference (`support/`) the incremental
//! factor is checked against.

use proptest::prelude::*;
use ref_solver::gp::{GeometricProgram, Monomial, Posynomial};
use ref_solver::vec_ops;

#[path = "support/lstsq.rs"]
mod lstsq;
#[path = "support/qr.rs"]
mod qr;

use qr::Qr;

/// A strategy for well-conditioned matrix entries.
fn entry() -> impl Strategy<Value = f64> {
    (-100i32..=100).prop_map(|v| v as f64 / 10.0)
}

/// A `rows x cols` matrix as its rows.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(entry(), cols), rows)
}

/// Largest absolute entry.
fn max_abs(m: &[Vec<f64>]) -> f64 {
    m.iter().flatten().fold(0.0_f64, |acc, v| acc.max(v.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qr_reconstructs_random_matrices(m in matrix(6, 4)) {
        let qr = Qr::new(&m).unwrap();
        let (q, r) = (qr.q(), qr.r());
        for (qi, mi) in q.iter().zip(&m) {
            for (j, want) in mi.iter().enumerate() {
                let got: f64 = qi.iter().zip(&r).map(|(qik, rk)| qik * rk[j]).sum();
                prop_assert!((got - want).abs() < 1e-9 * (1.0 + max_abs(&m)));
            }
        }
    }

    #[test]
    fn qr_q_is_orthonormal(m in matrix(7, 3)) {
        let q = Qr::new(&m).unwrap().q();
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = q.iter().map(|row| row[i] * row[j]).sum();
                let eye = if i == j { 1.0 } else { 0.0 };
                prop_assert!((dot - eye).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn least_squares_residual_is_orthogonal(
        m in matrix(8, 3),
        b in prop::collection::vec(entry(), 8),
    ) {
        let qr = Qr::new(&m).unwrap();
        let x = match qr.solve_least_squares(&b) {
            Ok(x) => x,
            // Random matrices can be rank deficient; that is a valid
            // outcome, not a property failure.
            Err(_) => return Ok(()),
        };
        let r: Vec<f64> = m
            .iter()
            .zip(&b)
            .map(|(row, bi)| bi - vec_ops::dot(row, &x))
            .collect();
        let atr: Vec<f64> = (0..3)
            .map(|j| m.iter().zip(&r).map(|(row, ri)| row[j] * ri).sum())
            .collect();
        let scale = 1.0 + vec_ops::norm_inf(&b) + max_abs(&m);
        prop_assert!(vec_ops::norm_inf(&atr) < 1e-7 * scale * scale);
    }

    #[test]
    fn log_sum_exp_bounds(v in prop::collection::vec(-50.0..50.0f64, 1..10)) {
        let lse = vec_ops::log_sum_exp(&v);
        let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lse >= max - 1e-12);
        prop_assert!(lse <= max + (v.len() as f64).ln() + 1e-12);
    }

    #[test]
    fn lstsq_recovers_exact_linear_models(
        c0 in entry(),
        c1 in entry(),
        c2 in entry(),
    ) {
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![(i % 4) as f64, (i / 2) as f64 * 1.5])
            .collect();
        let x = lstsq::design_with_intercept(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| c0 + c1 * r[0] + c2 * r[1]).collect();
        let fit = lstsq::fit(&x, &y).unwrap();
        prop_assert!((fit.coefficients[0] - c0).abs() < 1e-8);
        prop_assert!((fit.coefficients[1] - c1).abs() < 1e-8);
        prop_assert!((fit.coefficients[2] - c2).abs() < 1e-8);
    }

    #[test]
    fn gp_budget_problem_matches_closed_form(
        a1 in 0.1..1.0f64,
        a2 in 0.1..1.0f64,
        budget in 1.0..50.0f64,
    ) {
        // maximize x^a1 y^a2 s.t. (x + y)/budget <= 1
        // has closed form x = a1/(a1+a2) * budget.
        let obj = Monomial::new(1.0, vec![a1, a2]).unwrap();
        let mut gp = GeometricProgram::minimize(2, obj.reciprocal().into()).unwrap();
        gp.add_constraint(
            Posynomial::from_monomials(vec![
                Monomial::new(1.0 / budget, vec![1.0, 0.0]).unwrap(),
                Monomial::new(1.0 / budget, vec![0.0, 1.0]).unwrap(),
            ])
            .unwrap(),
        )
        .unwrap();
        let sol = gp.solve(&[budget / 3.0, budget / 3.0]).unwrap();
        let expect_x = a1 / (a1 + a2) * budget;
        prop_assert!(
            (sol.x[0] - expect_x).abs() < 1e-2 * budget,
            "x {} expected {expect_x}",
            sol.x[0]
        );
    }

    #[test]
    fn monomial_reciprocal_inverts(coeff in 0.1..10.0f64, e1 in -2.0..2.0f64, e2 in -2.0..2.0f64) {
        let m = Monomial::new(coeff, vec![e1, e2]).unwrap();
        let r = m.reciprocal();
        for (x, y) in [(0.5, 2.0), (3.0, 0.25), (1.0, 1.0)] {
            let prod = m.eval(&[x, y]) * r.eval(&[x, y]);
            prop_assert!((prod - 1.0).abs() < 1e-12);
        }
    }
}

//! Property-based tests for the incremental least-squares path and the
//! warm-started GP solver.
//!
//! The incremental properties compare an appended triangle against an
//! independent algorithm, the Householder reference in `support/`, to
//! 1e-10 on well-conditioned designs, and the packed triangle against
//! the square `p x p` buffer it replaced (`support/square_factor.rs`),
//! bit for bit. The GP property checks that a
//! warm-started solve of a randomized Cobb-Douglas market lands on the
//! cold-started optimum within the solver's tolerance.

use proptest::prelude::*;
use ref_solver::gp::{GeometricProgram, GpWarmStart, Monomial, Posynomial};
use ref_solver::update::UpdatableLstsq;
use ref_solver::SolverError;

#[path = "support/lstsq.rs"]
mod lstsq;
#[path = "support/qr.rs"]
mod qr;
#[path = "support/square_factor.rs"]
mod square_factor;

use square_factor::{Refusal, SquareLstsq};

/// Covariate rows whose columns are independent by construction: an
/// intercept, a per-row varying term, and a nonlinear cross term, plus
/// value jitter so no two designs coincide.
fn design(m: usize, k: usize, jitter: &[f64]) -> Vec<Vec<f64>> {
    (0..m)
        .map(|i| {
            (0..k)
                .map(|j| match j {
                    0 => 1.0,
                    _ => {
                        let base = ((i * (j + 2) + j) % 7) as f64 - 3.0;
                        base + 0.1 * jitter[(i * k + j) % jitter.len()]
                    }
                })
                .collect()
        })
        .collect()
}

fn responses(rows: &[Vec<f64>], jitter: &[f64]) -> Vec<f64> {
    rows.iter()
        .enumerate()
        .map(|(i, r)| {
            let trend: f64 = r
                .iter()
                .enumerate()
                .map(|(j, v)| (j as f64 + 0.5) * v)
                .sum();
            trend + jitter[i % jitter.len()] + 0.05 * ((i * i) % 11) as f64
        })
        .collect()
}

fn batch_fit(rows: &[Vec<f64>], y: &[f64]) -> Option<lstsq::Fit> {
    lstsq::fit(rows, y).ok()
}

/// A factor's exported state and its solve, as bits: the triangle and
/// the sums, the row count, and the solve's coefficients followed by
/// `R^2`, the residual and the total sum of squares (or its refusal).
type Bits = (Vec<u64>, usize, Result<Vec<u64>, Refusal>);

fn to_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

fn packed_bits(lstsq: &UpdatableLstsq) -> Bits {
    let (sum_y, sum_yy) = lstsq.sums();
    let mut c = vec![0.0; lstsq.num_coefficients()];
    let solve = match lstsq.solve_into(&mut c) {
        Ok(q) => {
            let q = [
                q.r_squared,
                q.residual_sum_of_squares,
                q.total_sum_of_squares,
            ];
            Ok(to_bits(&[&c[..], &q].concat()))
        }
        Err(SolverError::RankDeficient) => Err(Refusal::RankDeficient),
        Err(e) => panic!("a solve into the right width refused: {e}"),
    };
    let parts = [lstsq.triangle(), &[sum_y, sum_yy]].concat();
    (to_bits(&parts), lstsq.rows(), solve)
}

fn square_bits(lstsq: &SquareLstsq) -> Bits {
    let (sum_y, sum_yy) = lstsq.sums();
    let mut c = vec![0.0; lstsq.num_coefficients()];
    let solve = lstsq.solve_into(&mut c).map(|q| {
        let q = [
            q.r_squared,
            q.residual_sum_of_squares,
            q.total_sum_of_squares,
        ];
        to_bits(&[&c[..], &q].concat())
    });
    let parts = [&lstsq.triangle()[..], &[sum_y, sum_yy]].concat();
    (to_bits(&parts), lstsq.rows(), solve)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn append_matches_from_scratch_refactorization(
        m in 6usize..40,
        k in 1usize..5,
        jitter in prop::collection::vec(-1.0..1.0f64, 8..24),
    ) {
        if m <= k + 1 {
            return Ok(());
        }
        let rows = design(m, k, &jitter);
        let y = responses(&rows, &jitter);
        let mut inc = UpdatableLstsq::new(k);
        for (r, &yi) in rows.iter().zip(&y) {
            inc.append(r, yi).unwrap();
        }
        let Some(reference) = batch_fit(&rows, &y) else {
            // Rank-deficient draw: the incremental path must agree on the
            // classification rather than return garbage coefficients.
            prop_assert!(inc.solve().is_err());
            return Ok(());
        };
        let fit = inc.solve().unwrap();
        for (a, b) in fit.coefficients().iter().zip(&reference.coefficients) {
            prop_assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()), "{a} vs {b}");
        }
        prop_assert!((fit.r_squared() - reference.r_squared).abs() < 1e-10);
        prop_assert!(
            (fit.residual_sum_of_squares() - reference.residual_sum_of_squares).abs()
                < 1e-9 * (1.0 + reference.residual_sum_of_squares)
        );
    }

    #[test]
    fn exported_parts_rebuild_a_bit_identical_accumulator(
        m in 4usize..30,
        k in 1usize..5,
        cut in 0usize..30,
        jitter in prop::collection::vec(-1.0..1.0f64, 8..24),
    ) {
        // Export at any row count, rebuild, and feed both the rest: every
        // bit of the factor, the sums and the solve must agree.
        let rows = design(m, k, &jitter);
        let y = responses(&rows, &jitter);
        let cut = cut.min(m);
        let mut original = UpdatableLstsq::new(k);
        for (r, &yi) in rows[..cut].iter().zip(&y) {
            original.append(r, yi).unwrap();
        }
        let mut rebuilt =
            UpdatableLstsq::from_parts(k, original.triangle(), original.rows(), original.sums())
                .unwrap();
        prop_assert_eq!(&rebuilt, &original);
        for (r, &yi) in rows[cut..].iter().zip(&y[cut..]) {
            original.append(r, yi).unwrap();
            rebuilt.append(r, yi).unwrap();
        }
        let bits = |lstsq: &UpdatableLstsq| -> Vec<u64> {
            let (sum_y, sum_yy) = lstsq.sums();
            lstsq.triangle().iter().chain(&[sum_y, sum_yy]).map(|x| x.to_bits()).collect()
        };
        prop_assert_eq!(bits(&rebuilt), bits(&original));
        match (rebuilt.solve(), original.solve()) {
            (Ok(a), Ok(b)) => {
                let coefficients = |f: &ref_solver::update::UpdatableFit| -> Vec<u64> {
                    f.coefficients().iter().map(|c| c.to_bits()).collect()
                };
                prop_assert_eq!(coefficients(&a), coefficients(&b));
                prop_assert_eq!(a.r_squared().to_bits(), b.r_squared().to_bits());
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "classification diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn packed_triangle_matches_the_square_buffer_bit_for_bit(
        k in 1usize..=6,
        draws in prop::collection::vec(
            (prop::collection::vec(-3.0..3.0f64, 7), -3.0..3.0f64, 0u8..10),
            1..40,
        ),
    ) {
        // Designs of one to six columns, so triangles of 3 to 28 entries:
        // inline up to three columns, on the heap past them. One draw in
        // ten is a row of the wrong width, one a row with a NaN, one a
        // zero (a skipped rotation), one an infinite response.
        let mut packed = UpdatableLstsq::new(k);
        let mut square = SquareLstsq::new(k);
        prop_assert_eq!(packed_bits(&packed), square_bits(&square));
        for (values, y, kind) in draws {
            let mut row = values[..k].to_vec();
            let mut y = y;
            match kind {
                0 => row.push(1.0),
                1 => row[k - 1] = f64::NAN,
                2 => row[0] = 0.0,
                3 => y = f64::INFINITY,
                _ => {}
            }
            let (packed_before, square_before) = (packed.clone(), square.clone());
            let appended = (packed.append(&row, y).is_ok(), square.append(&row, y).is_ok());
            prop_assert_eq!(appended.0, appended.1, "row {:?} -> {}", row, y);
            if !appended.0 {
                prop_assert_eq!(&packed, &packed_before);
                prop_assert_eq!(&square, &square_before);
            }
            prop_assert_eq!(packed_bits(&packed), square_bits(&square));
            let rebuilt =
                UpdatableLstsq::from_parts(k, packed.triangle(), packed.rows(), packed.sums())
                    .unwrap();
            prop_assert_eq!(packed_bits(&rebuilt), packed_bits(&packed));
            prop_assert_eq!(&rebuilt, &packed);
        }
    }

    #[test]
    fn warm_started_gp_agrees_with_cold_on_random_cobb_douglas_markets(
        e in prop::collection::vec(0.15..0.9f64, 4),
        cap1 in 8.0..32.0f64,
        cap2 in 4.0..16.0f64,
    ) {
        // Two agents, two resources: maximize the Nash product
        // prod_i x_i1^{e_i1} x_i2^{e_i2} under per-resource capacities.
        // Variables ordered (x11, x12, x21, x22).
        let welfare = Monomial::new(1.0, vec![e[0], e[1], e[2], e[3]]).unwrap();
        let mut gp = GeometricProgram::minimize(4, welfare.reciprocal().into()).unwrap();
        gp.add_constraint(Posynomial::from_monomials(vec![
            Monomial::new(1.0 / cap1, vec![1.0, 0.0, 0.0, 0.0]).unwrap(),
            Monomial::new(1.0 / cap1, vec![0.0, 0.0, 1.0, 0.0]).unwrap(),
        ]).unwrap()).unwrap();
        gp.add_constraint(Posynomial::from_monomials(vec![
            Monomial::new(1.0 / cap2, vec![0.0, 1.0, 0.0, 0.0]).unwrap(),
            Monomial::new(1.0 / cap2, vec![0.0, 0.0, 0.0, 1.0]).unwrap(),
        ]).unwrap()).unwrap();
        let x0 = [cap1 / 3.0, cap2 / 3.0, cap1 / 3.0, cap2 / 3.0];
        let cold = gp.solve(&x0).unwrap();
        let warm = gp
            .solve_warm(&x0, Some(&GpWarmStart::from_solution(&cold)))
            .unwrap();
        prop_assert!(warm.outer_iterations <= cold.outer_iterations);
        let scale = cap1.max(cap2);
        for (w, c) in warm.x.iter().zip(&cold.x) {
            prop_assert!((w - c).abs() < 1e-3 * scale, "{w} vs {c}");
        }
        prop_assert!(
            (warm.objective_value - cold.objective_value).abs()
                <= 1e-4 * (1.0 + cold.objective_value.abs())
        );
    }
}

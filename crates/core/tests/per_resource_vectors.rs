//! Bundles and utilities store one or two per-resource values inline and
//! three or more on the heap. Every constructor must produce, bit for bit,
//! what the same arithmetic over a plain `Vec<f64>` produces, print as the
//! `Vec` would, and refuse exactly the inputs it always refused, with the
//! same error text — for every resource count on either side of the
//! inline bound.

use ref_core::error::CoreError;
use ref_core::mechanism::{
    CreditInner, CreditMechanism, MaxWelfare, Mechanism, ProportionalElasticity,
};
use ref_core::online::OnlineEstimator;
use ref_core::resource::{Allocation, Bundle, Capacity};
use ref_core::utility::{CobbDouglas, Utility};

/// Deterministic values in `[lo, hi)`.
struct Draws(u64);

impl Draws {
    fn next(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        lo + (hi - lo) * (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn vec(&mut self, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..len).map(|_| self.next(lo, hi)).collect()
    }
}

/// The types as they were while they held a `Vec<f64>`, for their
/// derived `Debug` text.
#[allow(dead_code)]
mod reference {
    #[derive(Debug)]
    pub(crate) struct Bundle(pub Vec<f64>);

    #[derive(Debug)]
    pub(crate) struct CobbDouglas {
        pub scale: f64,
        pub elasticities: Vec<f64>,
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn invalid(msg: &str) -> CoreError {
    CoreError::InvalidArgument(msg.to_string())
}

/// `x_ir = d_ir / sum_j d_jr * C_r`, a resource nobody demands split
/// equally: the proportional split over `Vec`s, in the kernel's order of
/// operations.
fn reference_split(demand: &[Vec<f64>], capacity: &[f64]) -> Vec<Vec<f64>> {
    let mut total = vec![0.0; capacity.len()];
    for d in demand {
        for (t, &e) in total.iter_mut().zip(d) {
            *t += e;
        }
    }
    demand
        .iter()
        .map(|d| {
            d.iter()
                .enumerate()
                .map(|(r, &e)| match total[r] {
                    t if t > 0.0 => e / t * capacity[r],
                    _ => capacity[r] / demand.len() as f64,
                })
                .collect()
        })
        .collect()
}

fn assert_bundles(alloc: &Allocation, expected: &[Vec<f64>]) {
    assert_eq!(alloc.num_agents(), expected.len());
    for (b, e) in alloc.bundles().iter().zip(expected) {
        assert_eq!(bits(b.as_slice()), bits(e));
    }
}

#[test]
fn constructors_match_the_vec_reference_bit_for_bit() {
    let mut draws = Draws(0x5EED);
    for r in 1..=5 {
        for _ in 0..20 {
            let quantities = draws.vec(r, 0.0, 100.0);
            let b = Bundle::new(quantities.clone()).unwrap();
            assert_eq!(bits(b.as_slice()), bits(&quantities));
            assert_eq!(b.num_resources(), r);
            assert_eq!(b.as_ref(), &quantities[..]);
            assert_eq!(b, Bundle::new(quantities.clone()).unwrap());
            let vec_bundle = reference::Bundle(quantities.clone());
            assert_eq!(format!("{b:?}"), format!("{vec_bundle:?}"));
            assert_eq!(format!("{b:#?}"), format!("{vec_bundle:#?}"));

            let scale = draws.next(0.1, 3.0);
            let elasticities = draws.vec(r, 0.0, 2.0);
            let u = CobbDouglas::new(scale, elasticities.clone()).unwrap();
            assert_eq!(bits(u.elasticities()), bits(&elasticities));
            let vec_utility = reference::CobbDouglas {
                scale,
                elasticities: elasticities.clone(),
            };
            assert_eq!(format!("{u:?}"), format!("{vec_utility:?}"));
            assert_eq!(format!("{u:#?}"), format!("{vec_utility:#?}"));
            let expected = u
                .elasticities()
                .iter()
                .map(|a| a / elasticities.iter().sum::<f64>())
                .collect::<Vec<_>>();
            let rescaled = u.rescaled();
            assert_eq!(rescaled.scale(), 1.0);
            assert_eq!(bits(rescaled.elasticities()), bits(&expected));
            assert_eq!(
                u.value(&b).to_bits(),
                (scale
                    * quantities
                        .iter()
                        .zip(&elasticities)
                        .map(|(x, a)| x.powf(*a))
                        .product::<f64>())
                .to_bits()
            );
            let normalized = CobbDouglas::normalized(expected.clone()).unwrap();
            assert_eq!(bits(normalized.elasticities()), bits(&expected));
            assert_eq!(normalized, rescaled);

            let totals = draws.vec(r, 1.0, 1e4);
            let capacity = Capacity::new(totals.clone()).unwrap();
            for n in [1, 3, 7] {
                let split: Vec<f64> = totals.iter().map(|c| c / n as f64).collect();
                assert_eq!(bits(capacity.equal_split(n).as_slice()), bits(&split));
            }
            assert_eq!(bits(capacity.as_bundle().as_slice()), bits(&totals));
        }
    }
}

#[test]
fn proportional_splits_match_the_vec_reference_bit_for_bit() {
    let mut draws = Draws(0xA110C);
    for r in 1..=5 {
        for agents in [1, 2, 9] {
            let capacity = draws.vec(r, 1.0, 1e4);
            let mut elasticities: Vec<Vec<f64>> =
                (0..agents).map(|_| draws.vec(r, 0.0, 2.0)).collect();
            // Nobody demands the last resource (when another one is
            // demanded): it is split equally.
            if r > 1 {
                for e in &mut elasticities {
                    e[r - 1] = 0.0;
                }
            }
            let utilities: Vec<CobbDouglas> = elasticities
                .iter()
                .map(|e| CobbDouglas::new(draws.next(0.5, 2.0), e.clone()).unwrap())
                .collect();
            let cap = Capacity::new(capacity.clone()).unwrap();

            // REF: the split of the re-scaled elasticities.
            let rescaled: Vec<Vec<f64>> = elasticities
                .iter()
                .map(|e| e.iter().map(|a| a / e.iter().sum::<f64>()).collect())
                .collect();
            let alloc = ProportionalElasticity.allocate(&utilities, &cap).unwrap();
            assert_bundles(&alloc, &reference_split(&rescaled, &capacity));

            // Nash welfare subject to capacity alone: the raw elasticities.
            let alloc = MaxWelfare::without_fairness()
                .allocate(&utilities, &cap)
                .unwrap();
            assert_bundles(&alloc, &reference_split(&elasticities, &capacity));

            // Credit-weighted Nash welfare: the tilted elasticities.
            let weights = draws.vec(agents, 0.5, 2.0);
            let credit = CreditMechanism::new(CreditInner::MaxWelfare, weights.clone()).unwrap();
            let tilted: Vec<Vec<f64>> = elasticities
                .iter()
                .zip(&weights)
                .map(|(e, w)| e.iter().map(|a| a * w).collect())
                .collect();
            for (t, (u, w)) in credit
                .tilted(&utilities)
                .unwrap()
                .iter()
                .zip(utilities.iter().zip(&weights))
            {
                assert_eq!(t.scale().to_bits(), u.scale().powf(*w).to_bits());
            }
            let alloc = credit.allocate(&utilities, &cap).unwrap();
            assert_bundles(&alloc, &reference_split(&tilted, &capacity));
        }
    }
}

#[test]
fn refused_inputs_keep_their_errors() {
    for r in 1..=5 {
        let zeros = vec![0.0; r];
        for bad in 0..r {
            let mut negative = vec![1.0; r];
            negative[bad] = -0.5;
            let mut nan = vec![1.0; r];
            nan[bad] = f64::NAN;
            let mut inf = vec![1.0; r];
            inf[bad] = f64::INFINITY;
            assert_eq!(
                Bundle::new(negative.clone()),
                Err(invalid(
                    "bundle quantities must be finite and non-negative, got -0.5"
                ))
            );
            assert_eq!(
                Bundle::new(nan.clone()),
                Err(invalid(
                    "bundle quantities must be finite and non-negative, got NaN"
                ))
            );
            assert_eq!(
                CobbDouglas::new(1.0, negative),
                Err(invalid(
                    "elasticities must be finite and non-negative, got -0.5"
                ))
            );
            assert_eq!(
                CobbDouglas::new(1.0, nan),
                Err(invalid(
                    "elasticities must be finite and non-negative, got NaN"
                ))
            );
            assert_eq!(
                CobbDouglas::new(1.0, inf),
                Err(invalid(
                    "elasticities must be finite and non-negative, got inf"
                ))
            );
        }
        assert_eq!(Bundle::new(zeros.clone()).unwrap().as_slice(), &zeros[..]);
        assert_eq!(
            CobbDouglas::new(1.0, zeros.clone()),
            Err(invalid("at least one elasticity must be positive"))
        );
        assert_eq!(
            CobbDouglas::new(0.0, vec![0.5; r]),
            Err(invalid("scale must be positive and finite, got 0"))
        );
        assert_eq!(
            CobbDouglas::normalized(vec![0.5; r + 2]),
            Err(invalid(&format!(
                "normalized elasticities must sum to 1, got {}",
                0.5 * (r + 2) as f64
            )))
        );
        assert_eq!(
            CobbDouglas::normalized(zeros),
            Err(invalid("normalized elasticities must sum to 1, got 0"))
        );
    }
    assert_eq!(
        Bundle::new(vec![]),
        Err(invalid("bundle must cover at least one resource"))
    );
    assert_eq!(
        CobbDouglas::new(1.0, vec![]),
        Err(invalid("utility needs at least one resource"))
    );
}

#[test]
fn observing_a_slice_is_observing_the_vec() {
    let mut draws = Draws(0x0B5E);
    for r in 1..=5 {
        for window in [None, Some(r + 4)] {
            let fresh = || match window {
                None => OnlineEstimator::new(r).unwrap(),
                Some(w) => OnlineEstimator::with_window(r, w).unwrap(),
            };
            let (mut by_vec, mut by_slice) = (fresh(), fresh());
            for _ in 0..30 {
                let point = draws.vec(r, 0.5, 8.0);
                let perf = draws.next(0.1, 4.0);
                let refit = by_vec.observe(point.clone(), perf).unwrap();
                assert_eq!(by_slice.observe(&point[..], perf).unwrap(), refit);
            }
            assert_eq!(by_vec.state(), by_slice.state());
            assert!(by_vec.refits() > 0);

            let mut bad = vec![1.0; r];
            bad[r - 1] = 0.0;
            let refused = by_vec.observe(bad.clone(), 1.0);
            assert_eq!(
                refused,
                Err(invalid(
                    "inputs must be finite and positive for the log transform"
                ))
            );
            assert_eq!(by_slice.observe(&bad, 1.0), refused);
            assert_eq!(
                by_slice.observe(vec![1.0; r], -1.0),
                Err(invalid("output must be finite and positive, got -1"))
            );
            assert_eq!(
                by_slice.observe([1.0; 6].as_slice(), 1.0),
                Err(invalid(&format!(
                    "observation covers 6 resources, estimator expects {r}"
                )))
            );
            assert_eq!(by_vec.state(), by_slice.state());
        }
    }
}

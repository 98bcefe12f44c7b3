//! Integration of the SPL analysis with fitted utilities: strategic
//! behavior against realistic (fitted) populations.

use ref_fairness::core::resource::Capacity;
use ref_fairness::core::spl::{best_response, max_gain_from_lying, rescaled_rows};
use ref_fairness::core::utility::CobbDouglas;

/// Builds a population by cycling a few realistic fitted profiles.
fn population(n: usize) -> Vec<CobbDouglas> {
    let prototypes = [
        (0.04, vec![0.12, 0.28]),
        (0.30, vec![0.48, 0.07]),
        (0.80, vec![0.25, 0.26]),
        (0.15, vec![0.40, 0.22]),
    ];
    (0..n)
        .map(|i| {
            let (scale, e) = &prototypes[i % prototypes.len()];
            CobbDouglas::new(*scale, e.clone()).unwrap()
        })
        .collect()
}

#[test]
fn lying_gain_shrinks_with_population() {
    let c = Capacity::new(vec![100.0, 12.0]).unwrap();
    let gain = |n: usize| {
        let (_, gain) = max_gain_from_lying(&rescaled_rows(&population(n)), &c).unwrap();
        gain.relative_gain()
    };
    let (small, large) = (gain(2), gain(48));
    assert!(large < small, "large {large} vs small {small}");
    assert!(large < 5e-3, "large-system gain too big: {large}");
}

#[test]
fn truthful_report_is_near_optimal_at_64_agents() {
    // The paper's §4.3 example: 64 tasks on a >100 GB/s server.
    let agents = population(64);
    let rows = rescaled_rows(&agents);
    let c = Capacity::new(vec![100.0, 12.0]).unwrap();
    let mut totals = [0.0, 0.0];
    for r in &rows {
        totals[0] += r[0];
        totals[1] += r[1];
    }
    for row in rows.iter().take(8) {
        let others = [totals[0] - row[0], totals[1] - row[1]];
        let g = best_response(row, &others, c.as_slice()).unwrap();
        assert!(g.relative_gain() < 1e-3, "gain {}", g.relative_gain());
        assert!(g.report_deviation(row) < 0.05);
    }
}

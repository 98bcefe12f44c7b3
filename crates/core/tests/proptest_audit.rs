//! The fairness audit against the double loop it replaced.
//!
//! `FairnessReport::check_with_tolerance` clears most agents with a budget
//! certificate and most pairs of the rest in log space, and evaluates what
//! is left; the claim is that its report is the one the plain `powf` double
//! loop produces, bit for bit, on every input. The reference below is that
//! loop, kept verbatim. The corpus aims at where the two could part: agents
//! and pairs on the tolerance boundary, utilities that leave the normal
//! `f64` range, zero holdings and zero elasticities, tolerances the log-space
//! tiers must refuse.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ref_core::mechanism::{Mechanism, ProportionalElasticity};
use ref_core::properties::{envy_audit, EnvyEdge, FairnessReport, SiViolation};
use ref_core::resource::{Allocation, Bundle, Capacity};
use ref_core::utility::{CobbDouglas, Utility};

/// The audit as it stood before the log-space filter: one `powf` per
/// resource per ordered pair.
fn reference_check(
    agents: &[CobbDouglas],
    allocation: &Allocation,
    capacity: &Capacity,
    tol: f64,
) -> FairnessReport {
    let n = agents.len();
    let equal = capacity.equal_split(n);

    let mut si_violations = Vec::new();
    for (i, u) in agents.iter().enumerate() {
        let own = u.value(allocation.bundle(i));
        let split = u.value(&equal);
        if own < split * (1.0 - tol) {
            si_violations.push(SiViolation {
                agent: i,
                allocated_utility: own,
                equal_split_utility: split,
            });
        }
    }

    let mut envy_edges = Vec::new();
    for (i, u) in agents.iter().enumerate() {
        let own = u.value(allocation.bundle(i));
        for j in 0..n {
            if i == j {
                continue;
            }
            let other = u.value(allocation.bundle(j));
            if own < other * (1.0 - tol) {
                envy_edges.push(EnvyEdge {
                    envious: i,
                    envied: j,
                    own_utility: own,
                    other_utility: other,
                });
            }
        }
    }

    let max_mrs_mismatch = reference_mrs_mismatch(agents, allocation);
    let pareto_efficient =
        max_mrs_mismatch <= tol.max(1e-3) && allocation.is_exhaustive(capacity, tol.max(1e-6));

    FairnessReport {
        si_violations,
        envy_edges,
        pareto_efficient,
        max_mrs_mismatch,
    }
}

fn reference_mrs_mismatch(agents: &[CobbDouglas], allocation: &Allocation) -> f64 {
    let n = agents.len();
    let r_count = allocation.num_resources();
    let mut worst = 0.0_f64;
    for r in 0..r_count {
        for s in (r + 1)..r_count {
            let rates: Vec<f64> = (0..n)
                .filter_map(|i| agents[i].mrs(allocation.bundle(i), r, s).ok())
                .filter(|m| m.is_finite() && *m > 0.0)
                .collect();
            if rates.len() < 2 {
                continue;
            }
            let max = rates.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
            let min = rates.iter().fold(f64::INFINITY, |m, &v| m.min(v));
            worst = worst.max(max / min - 1.0);
        }
    }
    worst
}

const TOLERANCES: [f64; 7] = [0.0, 1e-9, 1e-6, 1e-2, 0.3, 1.0, f64::NAN];

/// How the bundles of a case are laid out.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// The proportional-elasticity allocation: envy-free by construction.
    Ref,
    EqualSplit,
    /// Random shares, a few of them zero.
    Random,
    /// One agent holds nearly everything.
    Lopsided,
    /// Every bundle is agent 0's scaled so that agent 0 sits on the
    /// tolerance boundary against it, give or take a few ulps.
    Boundary,
    /// A market at its own prices (`x_jr = â_jr · b_j / p_r`) in which one
    /// agent's budget ratio to the richest puts its certificate on the
    /// tolerance boundary, give or take a few ulps.
    Budget,
}

const LAYOUTS: [Layout; 6] = [
    Layout::Ref,
    Layout::EqualSplit,
    Layout::Random,
    Layout::Lopsided,
    Layout::Boundary,
    Layout::Budget,
];

/// Decimal exponent range of the capacities.
#[derive(Debug, Clone, Copy)]
enum Band {
    /// 1e-6 … 1e12.
    Wide,
    /// 1e150 or 1e-150 per resource: factors and partial products of a
    /// utility overflow or underflow, forcing the range guard.
    Extreme,
}

fn log_uniform(rng: &mut ChaCha8Rng, lo: f64, hi: f64) -> f64 {
    10f64.powf(rng.gen_range(lo..hi))
}

/// `x` moved `ulps` representable values up (or down, if negative).
fn nudge(x: f64, ulps: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + ulps) as u64)
}

/// `zeros` lets a few elasticities be zero, keeping one resource each
/// agent values.
fn population(
    rng: &mut ChaCha8Rng,
    n: usize,
    r: usize,
    band: Band,
    zeros: bool,
) -> Vec<CobbDouglas> {
    (0..n)
        .map(|_| {
            let mut es: Vec<f64> = (0..r)
                .map(|_| match band {
                    Band::Wide => rng.gen_range(0.05..1.5),
                    // 1e-150^2.155 is the smallest subnormal: around it one
                    // bundle's factor underflows to zero and another's does
                    // not, whatever the true utilities are.
                    Band::Extreme if rng.gen_bool(0.5) => rng.gen_range(2.05..2.25),
                    Band::Extreme => rng.gen_range(0.05..4.5),
                })
                .collect();
            let keep = rng.gen_range(0..r);
            for (k, e) in es.iter_mut().enumerate() {
                if zeros && k != keep && rng.gen_bool(0.15) {
                    *e = 0.0;
                }
            }
            CobbDouglas::new(log_uniform(rng, -3.0, 3.0), es).expect("valid by construction")
        })
        .collect()
}

fn capacity(rng: &mut ChaCha8Rng, r: usize, band: Band) -> Vec<f64> {
    match band {
        Band::Wide => (0..r).map(|_| log_uniform(rng, -6.0, 12.0)).collect(),
        Band::Extreme => (0..r)
            .map(|_| {
                let exponent = if rng.gen_bool(0.5) { 150.0 } else { -150.0 };
                10f64.powf(exponent + rng.gen_range(-1.0..1.0))
            })
            .collect(),
    }
}

/// Bundles from per-agent shares of each resource (rows need not sum to 1).
fn from_shares(shares: &[Vec<f64>], cap: &[f64]) -> Vec<Vec<f64>> {
    let r = cap.len();
    let totals: Vec<f64> = (0..r)
        .map(|k| {
            shares
                .iter()
                .map(|s| s[k])
                .sum::<f64>()
                .max(f64::MIN_POSITIVE)
        })
        .collect();
    shares
        .iter()
        .map(|s| (0..r).map(|k| s[k] / totals[k] * cap[k]).collect())
        .collect()
}

/// The bundles of a case. `Layout::Budget` also makes one agent share
/// another's elasticities.
fn bundles(
    rng: &mut ChaCha8Rng,
    agents: &mut [CobbDouglas],
    cap: &[f64],
    layout: Layout,
    tol: f64,
) -> Vec<Vec<f64>> {
    let (n, r) = (agents.len(), cap.len());
    match layout {
        Layout::Ref => {
            let capacity = Capacity::new(cap.to_vec()).expect("positive capacity");
            let alloc = ProportionalElasticity
                .allocate(agents, &capacity)
                .expect("REF allocates any valid population");
            alloc
                .bundles()
                .iter()
                .map(|b| b.as_slice().to_vec())
                .collect()
        }
        Layout::EqualSplit => vec![cap.iter().map(|c| c / n as f64).collect(); n],
        Layout::Random => {
            let shares: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..r)
                        .map(|_| {
                            if rng.gen_bool(0.08) {
                                0.0
                            } else {
                                rng.gen_range(0.01..1.0)
                            }
                        })
                        .collect()
                })
                .collect();
            from_shares(&shares, cap)
        }
        Layout::Lopsided => {
            let hog = rng.gen_range(0..n);
            let shares: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let weight = if i == hog { 1e4 } else { 1.0 };
                    (0..r).map(|_| weight * rng.gen_range(0.5..1.5)).collect()
                })
                .collect();
            from_shares(&shares, cap)
        }
        Layout::Boundary => {
            // u_0(k·x) = k^(Σa) · u_0(x): with k = (1 − tol)^(−1/Σa), agent 0
            // is indifferent between its bundle and k·x after the tolerance.
            let sum = agents[0].elasticity_sum();
            let k = (1.0 - tol).powf(-1.0 / sum);
            let k = if k.is_finite() && k > 0.0 { k } else { 1.0 };
            let base: Vec<f64> = cap.iter().map(|c| c / (n as f64 * k.max(1.0))).collect();
            (0..n)
                .map(|j| {
                    if j == 0 {
                        return base.clone();
                    }
                    let ulps = rng.gen_range(-4_i64..5);
                    base.iter().map(|x| nudge(x * k, ulps)).collect()
                })
                .collect()
        }
        Layout::Budget => {
            // Every budget is 1 except `poor`'s and `rich`'s, which sum to 2,
            // and `rich` demands like `poor`. Then Σ_j â_jr · b_j = Σ_j â_jr,
            // the allocation's own price Σâ/Σx is the price it was built at,
            // and `poor`'s certificate is tight: its gap is A · ln(b_rich /
            // b_poor), which the ratio sets to −ln(1 − tol).
            let poor = rng.gen_range(0..n);
            let rich = (poor + rng.gen_range(1..n)) % n;
            let elasticities = agents[poor].elasticities().to_vec();
            agents[rich] = CobbDouglas::new(log_uniform(rng, -3.0, 3.0), elasticities)
                .expect("valid by construction");
            let ratio = (1.0 - tol).powf(-1.0 / agents[poor].elasticity_sum());
            let ratio = if ratio.is_finite() {
                nudge(ratio, rng.gen_range(-4_i64..5))
            } else {
                1.0
            };
            let b_poor = 2.0 / (1.0 + ratio);
            let shares: Vec<Vec<f64>> = agents
                .iter()
                .enumerate()
                .map(|(j, u)| {
                    let budget = if j == poor {
                        b_poor
                    } else if j == rich {
                        ratio * b_poor
                    } else {
                        1.0
                    };
                    let sum = u.elasticity_sum();
                    u.elasticities().iter().map(|a| a / sum * budget).collect()
                })
                .collect();
            from_shares(&shares, cap)
        }
    }
}

/// Envy edges the reference found over the whole corpus.
static ENVY_EDGES: AtomicU64 = AtomicU64::new(0);
/// Agents the certificate cleared, and agents inside the range guard it
/// could not clear (each forms a row), over the whole corpus.
static CERTIFIED: AtomicU64 = AtomicU64::new(0);
static ROWS: AtomicU64 = AtomicU64::new(0);
static CASES_RUN: AtomicU64 = AtomicU64::new(0);
const CASES: u32 = 4_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn audit_matches_the_reference_double_loop(
        seed in 0u64..u64::MAX,
        n in 2usize..24,
        r in 1usize..=4,
        layout in 0usize..LAYOUTS.len(),
        tol in 0usize..TOLERANCES.len(),
        extreme in 0u32..4,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (layout, tol) = (LAYOUTS[layout], TOLERANCES[tol]);
        let band = if extreme == 0 { Band::Extreme } else { Band::Wide };
        let mut agents = population(&mut rng, n, r, band, !matches!(layout, Layout::Budget));
        let cap = capacity(&mut rng, r, band);
        let rows = bundles(&mut rng, &mut agents, &cap, layout, tol);
        let capacity = Capacity::new(cap).expect("positive capacity");
        let allocation = Allocation::new(
            rows.into_iter()
                .map(|q| Bundle::new(q).expect("finite holdings"))
                .collect(),
            &capacity,
        )
        .expect("feasible by construction");

        let got = FairnessReport::check_with_tolerance(&agents, &allocation, &capacity, tol);
        let want = reference_check(&agents, &allocation, &capacity, tol);

        prop_assert_eq!(got.envy_edges.len(), want.envy_edges.len());
        for (g, w) in got.envy_edges.iter().zip(&want.envy_edges) {
            prop_assert_eq!((g.envious, g.envied), (w.envious, w.envied));
            prop_assert_eq!(g.own_utility.to_bits(), w.own_utility.to_bits());
            prop_assert_eq!(g.other_utility.to_bits(), w.other_utility.to_bits());
        }
        prop_assert_eq!(got.si_violations.len(), want.si_violations.len());
        for (g, w) in got.si_violations.iter().zip(&want.si_violations) {
            prop_assert_eq!(g.agent, w.agent);
            prop_assert_eq!(g.allocated_utility.to_bits(), w.allocated_utility.to_bits());
            prop_assert_eq!(g.equal_split_utility.to_bits(), w.equal_split_utility.to_bits());
        }
        prop_assert_eq!(got.pareto_efficient, want.pareto_efficient);
        prop_assert_eq!(got.max_mrs_mismatch.to_bits(), want.max_mrs_mismatch.to_bits());

        // Cases run one after another inside this test, so the last one sees
        // the whole corpus: it must have held real envy, or the equalities
        // above compared empty lists, and both outcomes of the certificate,
        // or one tier went untested.
        let (_, work) = envy_audit(&agents, &allocation, tol);
        let edges = ENVY_EDGES.fetch_add(want.envy_edges.len() as u64, Ordering::Relaxed)
            + want.envy_edges.len() as u64;
        let certified = CERTIFIED.fetch_add(work.certified, Ordering::Relaxed) + work.certified;
        let rows = ROWS.fetch_add(work.rows, Ordering::Relaxed) + work.rows;
        if CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == u64::from(CASES) {
            prop_assert!(edges > 1_000, "corpus held only {edges} envy edges");
            prop_assert!(certified > 1_000, "certificate cleared only {certified} agents");
            prop_assert!(rows > 1_000, "only {rows} agents fell through to a row");
        }
    }
}

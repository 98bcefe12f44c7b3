//! The programs whose Newton systems stay dense — an envy constraint
//! couples every pair of agents, so every `g g^T` piece is added into the
//! envelope and the envelope is the whole lower triangle — must not notice
//! the structured kernel: same accumulation order, same factorization,
//! same iterates. The bits below were recorded from the dense-`Matrix`
//! kernel (the commit before the envelope Cholesky, debug and release) and
//! every entry of the four allocations must still match them exactly.
//!
//! The programs that keep their capacity rows apart — Nash welfare and
//! equal slowdown without fairness — are pinned too, at 48 agents on two
//! resources: there the Newton system is `S + U diag(c) U^T` with two
//! columns, and every iterate solves the `2 x 2` capacitance system.
//!
//! REF's closed form is pinned beside them, on the paper's example, the
//! four-agent market and a 2,000-agent one.
//!
//! `exp` and `ln` come from the platform's libm, so the pin is to the
//! platform it was recorded on.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use ref_core::mechanism::{
    EqualSlowdown, MaxWelfare, Mechanism, NashProgram, ProportionalElasticity,
};
use ref_core::resource::Capacity;
use ref_core::utility::CobbDouglas;

/// The paper's two-agent example.
fn paper_agents() -> Vec<CobbDouglas> {
    vec![
        CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap(),
        CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap(),
    ]
}

/// The market of `max_welfare::tests::four_agents_solve`.
fn four_agents() -> Vec<CobbDouglas> {
    vec![
        CobbDouglas::new(0.8, vec![0.7, 0.3]).unwrap(),
        CobbDouglas::new(1.1, vec![0.3, 0.7]).unwrap(),
        CobbDouglas::new(0.9, vec![0.5, 0.5]).unwrap(),
        CobbDouglas::new(1.3, vec![0.9, 0.1]).unwrap(),
    ]
}

fn assert_bits(mechanism: &dyn Mechanism, agents: &[CobbDouglas], want: &[u64]) {
    let capacity = Capacity::new(vec![24.0, 12.0]).unwrap();
    let alloc = mechanism.allocate(agents, &capacity).unwrap();
    let got: Vec<u64> = (0..agents.len())
        .flat_map(|i| (0..2).map(move |r| (i, r)))
        .map(|(i, r)| alloc.bundle(i).get(r).to_bits())
        .collect();
    assert_eq!(got, want, "{} moved: {alloc:?}", mechanism.name());
}

#[test]
fn max_welfare_with_fairness_is_bit_identical_to_the_dense_kernel() {
    assert_bits(
        &MaxWelfare::with_fairness(),
        &paper_agents(),
        &[
            0x4032000007350645,
            0x400fffffda953a29,
            0x4017ffffc3b6d71a,
            0x40200000041c8426,
        ],
    );
    assert_bits(
        &MaxWelfare::with_fairness(),
        &four_agents(),
        &[
            0x401c0000a729aefa,
            0x4002000021aea32a,
            0x4007ffff27eec946,
            0x4014ffffab332594,
            0x401400005b36e9ef,
            0x400e0000afde026f,
            0x4021ffffaf95d3fd,
            0x3fe7ffff214a1e30,
        ],
    );
}

#[test]
fn egalitarian_with_fairness_is_bit_identical_to_the_dense_kernel() {
    assert_bits(
        &EqualSlowdown::with_fairness(),
        &paper_agents(),
        &[
            0x40320e5ccf503bda,
            0x40102238b4163b1a,
            0x4017c68c840724fa,
            0x401fddc736e5d926,
        ],
    );
    assert_bits(
        &EqualSlowdown::with_fairness(),
        &four_agents(),
        &[
            0x401d793a9ca16d35,
            0x4002bb3e0c48c309,
            0x400753783afce84a,
            0x40143275302cb934,
            0x401522f2b74fbebb,
            0x400f4ff02d9a6940,
            0x4020dd0b32481f35,
            0x3fe63f9c9be914ad,
        ],
    );
}

/// `n` agents on the 16 elasticity levels `[a, 1 - a]`, `a` evenly
/// spaced in `[0.1, 0.9]`, taken in turn by id — the population of the
/// REF churn workload — on its capacity per agent, `(2, 1)`.
fn population(n: u32) -> (Vec<CobbDouglas>, Capacity) {
    let agents = (0..n)
        .map(|i| {
            let a = 0.1 + 0.8 * (f64::from(i % 16) + 0.5) / 16.0;
            CobbDouglas::new(1.0, vec![a, 1.0 - a]).unwrap()
        })
        .collect();
    let n = f64::from(n);
    (agents, Capacity::new(vec![2.0 * n, n]).unwrap())
}

/// Every entry's bits, agent-major, folded by FNV-1a.
fn fnv_bits(alloc: &ref_core::resource::Allocation) -> u64 {
    alloc
        .bundles()
        .iter()
        .flat_map(|b| b.as_slice().iter().map(|q| q.to_bits()))
        .fold(0xcbf2_9ce4_8422_2325, |h, bits| {
            (h ^ bits).wrapping_mul(0x0100_0000_01b3)
        })
}

/// REF's closed form (Eqs. 12–13) is arithmetic, not a solve: these bits
/// were recorded from its own per-mechanism loop, before it shared the
/// proportional-split kernel with weighted Nash welfare, and must not move.
#[test]
fn proportional_elasticity_keeps_its_bits() {
    assert_bits(
        &ProportionalElasticity,
        &paper_agents(),
        &[
            0x4031ffffffffffff,
            0x4010000000000000,
            0x4018000000000000,
            0x4020000000000000,
        ],
    );
    assert_bits(
        &ProportionalElasticity,
        &four_agents(),
        &[
            0x401c000000000000,
            0x4001ffffffffffff,
            0x4008000000000000,
            0x4014ffffffffffff,
            0x4014000000000000,
            0x400e000000000000,
            0x4022000000000000,
            0x3fe8000000000000,
        ],
    );
    let (agents, capacity) = population(2000);
    let alloc = ProportionalElasticity.allocate(&agents, &capacity).unwrap();
    let bits = |i: usize| {
        alloc
            .bundle(i)
            .as_slice()
            .iter()
            .map(|q| q.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(0), [0x3fe0000000000000, 0x3ffc000000000000]);
    assert_eq!(bits(1), [0x3fe6666666666667, 0x3ffa666666666666]);
    assert_eq!(bits(1999), [0x400c000000000000, 0x3fd0000000000000]);
    assert_eq!(fnv_bits(&alloc), 0x01991c13d2431336);
}

/// Equal slowdown without fairness at 48 agents: a level variable, an
/// arrow-shaped `S` and the two capacity rows kept apart as columns of
/// `U`. The digest and the Newton count were recorded before the `2 x 2`
/// capacitance system was eliminated in place, and must not move.
#[test]
fn equal_slowdown_keeps_its_bits_and_iterations_on_the_low_rank_path() {
    let (agents, capacity) = population(48);
    let (alloc, hint) = EqualSlowdown::new()
        .allocate_warm(&agents, &capacity, None)
        .unwrap();
    let iterations = hint.unwrap().stats.newton_iterations;
    assert_eq!((fnv_bits(&alloc), iterations), (0xf79e23e55862f458, 47));
}

/// Nash welfare under capacity alone at 48 agents: a diagonal `S` and the
/// two capacity rows kept apart. Recorded as the equal-slowdown pin.
#[test]
fn nash_program_keeps_its_bits_and_iterations_on_the_low_rank_path() {
    let (agents, capacity) = population(48);
    let program = NashProgram::new(&agents, &capacity).unwrap();
    let (alloc, hint) = program.solve_warm(None).unwrap();
    assert_eq!(
        (fnv_bits(&alloc), hint.stats.newton_iterations),
        (0x48ed041e22728d9d, 38)
    );
}

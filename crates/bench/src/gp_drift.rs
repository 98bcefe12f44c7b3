//! The weighted-Nash geometric program under a credit market's traffic, as
//! a fixed script: 48 agents on two resources whose credit weights drift a
//! little every epoch, one of whom changes its demand every fourth epoch,
//! and whose weights all move by 10% once. Each epoch's program
//! ([`NashProgram`] over the credit-tilted agents, the program
//! `max-welfare-fair` extends) is solved cold and — chained on the
//! previous epoch's optimum, as the market's warm-start cache does for the
//! GP mechanisms — warm, and both answers are checked against the
//! weighted-Nash closed form. (`credit-max-welfare` allocates that closed
//! form directly; the program is kept as the solver's oracle-checked
//! workload.)
//!
//! The `solver` Criterion bench and the tests below share this one
//! definition. What they gate on are counts (Newton iterations, abandoned
//! hints), which repeat exactly; the wall times are recorded, never gated.
//!
//! The same script at other market sizes ([`ScalingPoint`]) is the GP half
//! of the epoch-scaling curve: its first epoch solved cold, its second
//! cold and from the first's optimum, for the weighted-Nash program or the
//! `credit-equal-slowdown` mechanism.

use std::time::Instant;

use ref_core::mechanism::{
    CreditInner, CreditMechanism, GpWarmStart, Mechanism, NashProgram, SolveStats, WarmOutcome,
};
use ref_core::resource::{Allocation, Capacity};
use ref_core::utility::CobbDouglas;
use ref_core::welfare::egalitarian_gap;

/// Agents in the scripted market.
pub(crate) const AGENTS: usize = 48;

/// Market sizes on the GP half of the epoch-scaling curve.
pub const SCALING_AGENTS: [usize; 4] = [12, 48, 192, 384];

/// Epochs in the script.
pub(crate) const EPOCHS: usize = 16;

/// The epoch at which every weight moves by 10%.
pub(crate) const SHOCK_EPOCH: usize = 10;

/// Distinct elasticity levels the agents draw from.
const LEVELS: u64 = 16;

/// One epoch's problem: the reported utilities and the credit weights.
#[derive(Debug, Clone)]
pub(crate) struct DriftEpoch {
    /// One utility per agent.
    pub agents: Vec<CobbDouglas>,
    /// One credit weight per agent, in the ledger's `[0.4, 1.6]` band.
    pub weights: Vec<f64>,
}

/// Capacity of the scripted market.
pub(crate) fn capacity() -> Capacity {
    capacity_for(AGENTS)
}

/// Capacity of the script's market at `agents` agents: two units of the
/// first resource and one of the second per agent.
fn capacity_for(agents: usize) -> Capacity {
    Capacity::new(vec![2.0 * agents as f64, agents as f64]).expect("positive capacities")
}

/// Utility at elasticity level `level`: `[a, 1 - a]` with `a` one of 16
/// evenly spaced values in `[0.1, 0.9]`.
fn utility(level: u64) -> CobbDouglas {
    let a = 0.1 + 0.8 * (level as f64 + 0.5) / LEVELS as f64;
    CobbDouglas::new(1.0, vec![a, 1.0 - a]).expect("elasticities in (0, 1)")
}

/// A value in `[-1, 1)` keyed by `(epoch, agent)` (SplitMix64 finalizer).
fn noise(epoch: usize, agent: usize) -> f64 {
    let mut z = ((epoch as u64) << 32 | agent as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// The script. Weights start spread over `[0.8, 1.2]`; every epoch each
/// moves by up to 0.5% (what a settled ledger does: a steady 48-agent
/// credit market moves its weights 0.2-0.5% rms per epoch); every fourth
/// epoch one agent takes another elasticity level; at `SHOCK_EPOCH`
/// every weight moves by 10%, half of them up and half down.
pub(crate) fn script() -> Vec<DriftEpoch> {
    script_for(AGENTS, EPOCHS)
}

/// The first `count` epochs of the script for a market of `agents`.
fn script_for(agents: usize, count: usize) -> Vec<DriftEpoch> {
    let mut levels: Vec<u64> = (0..agents as u64).map(|i| i % LEVELS).collect();
    let mut weights: Vec<f64> = (0..agents).map(|i| 1.0 + 0.2 * noise(0, i)).collect();
    let mut epochs = Vec::with_capacity(count);
    for epoch in 0..count {
        if epoch > 0 {
            for (i, w) in weights.iter_mut().enumerate() {
                let step = if epoch == SHOCK_EPOCH {
                    if i % 2 == 0 {
                        0.10
                    } else {
                        -0.10
                    }
                } else {
                    0.005 * noise(epoch, i)
                };
                *w = (*w * (1.0 + step)).clamp(0.4, 1.6);
            }
            if epoch % 4 == 3 {
                let who = (7 * epoch) % agents;
                levels[who] = (levels[who] + 5 + (epoch / 4) as u64) % LEVELS;
            }
        }
        epochs.push(DriftEpoch {
            agents: levels.iter().map(|&l| utility(l)).collect(),
            weights: weights.clone(),
        });
    }
    epochs
}

/// The weighted-Nash optimum in closed form,
/// `x_ir = C_r w_i a_ir / sum_j w_j a_jr`: the independent oracle for the
/// weighted-Nash program, computed here without `ref-core`'s kernel.
pub(crate) fn closed_form(epoch: &DriftEpoch, capacity: &Capacity) -> Vec<Vec<f64>> {
    let resources = capacity.num_resources();
    let demand = |i: usize, r: usize| epoch.weights[i] * epoch.agents[i].elasticity(r);
    let totals: Vec<f64> = (0..resources)
        .map(|r| (0..epoch.agents.len()).map(|i| demand(i, r)).sum())
        .collect();
    (0..epoch.agents.len())
        .map(|i| {
            (0..resources)
                .map(|r| capacity.get(r) * demand(i, r) / totals[r])
                .collect()
        })
        .collect()
}

/// Solves the geometric program behind `inner` at `weights`, from `hint`
/// when given: for [`CreditInner::MaxWelfare`], whose mechanism allocates
/// the closed form, the weighted-Nash [`NashProgram`] over the tilted
/// agents; for [`CreditInner::EqualSlowdown`], the mechanism's own solve.
fn solve_gp(
    inner: CreditInner,
    epoch: &DriftEpoch,
    capacity: &Capacity,
    hint: Option<&GpWarmStart>,
) -> (Allocation, GpWarmStart) {
    let mechanism = CreditMechanism::new(inner, epoch.weights.clone()).expect("positive weights");
    let solved = match inner {
        CreditInner::MaxWelfare => mechanism
            .tilted(&epoch.agents)
            .and_then(|tilted| NashProgram::new(&tilted, capacity))
            .and_then(|program| program.solve_warm(hint))
            .map(|(alloc, hint)| (alloc, Some(hint))),
        CreditInner::EqualSlowdown => mechanism.allocate_warm(&epoch.agents, capacity, hint),
    };
    let (alloc, next) = solved.expect("the scripted programs are feasible");
    (alloc, next.expect("a GP solve returns a hint"))
}

/// Largest relative gap between an allocation and the closed form.
fn divergence(alloc: &Allocation, oracle: &[Vec<f64>]) -> f64 {
    let mut worst: f64 = 0.0;
    for (i, row) in oracle.iter().enumerate() {
        for (r, want) in row.iter().enumerate() {
            worst = worst.max((alloc.bundle(i).get(r) / want - 1.0).abs());
        }
    }
    worst
}

/// What one pass over the script measured.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRun {
    /// Newton iterations of each epoch's cold solve.
    pub cold_newton_iters: Vec<usize>,
    /// Newton iterations of each epoch's warm solve (epoch 0 has no hint:
    /// it is the cold solve again).
    pub warm_newton_iters: Vec<usize>,
    /// Warm solves whose hint was tried and abandoned.
    pub warm_fallbacks: usize,
    /// Largest relative gap between any solve's allocation and the closed
    /// form.
    pub divergence: f64,
    /// Wall time of the cold solves.
    pub cold_secs: f64,
    /// Wall time of the warm solves.
    pub warm_secs: f64,
}

impl DriftRun {
    /// The count gates every consumer of the script enforces: each
    /// allocation within 1e-6 of the closed form, no hint abandoned, and no
    /// warm solve costing more Newton iterations than the cold solve of the
    /// same epoch.
    ///
    /// # Errors
    ///
    /// Returns a description of the first gate that failed.
    pub fn check(&self) -> Result<(), String> {
        if self.divergence > 1e-6 {
            return Err(format!(
                "GP solves diverged from the closed form by {:.2e}",
                self.divergence
            ));
        }
        if self.warm_fallbacks > 0 {
            return Err(format!(
                "{} warm-start hint(s) abandoned",
                self.warm_fallbacks
            ));
        }
        let pairs = self.warm_newton_iters.iter().zip(&self.cold_newton_iters);
        match pairs.enumerate().find(|(_, (warm, cold))| warm > cold) {
            Some((epoch, (warm, cold))) => Err(format!(
                "epoch {epoch}: warm GP solve took {warm} Newton iterations, cold {cold}"
            )),
            None => Ok(()),
        }
    }
}

/// Solves every epoch's weighted-Nash program: cold when `chained` is
/// false, otherwise each seeded with the previous epoch's hint (the first
/// epoch has none). Returns each epoch's allocation and the hint it left.
pub fn solve_all(chained: bool) -> Vec<(Allocation, GpWarmStart)> {
    let capacity = capacity();
    let mut solved: Vec<(Allocation, GpWarmStart)> = Vec::with_capacity(EPOCHS);
    for epoch in script() {
        let hint = solved.last().filter(|_| chained).map(|(_, hint)| hint);
        let next = solve_gp(CreditInner::MaxWelfare, &epoch, &capacity, hint);
        solved.push(next);
    }
    solved
}

/// Solves every epoch of the script cold and warm, and checks every
/// allocation against the closed form.
pub fn run() -> DriftRun {
    let started = Instant::now();
    let cold = solve_all(false);
    let cold_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let warm = solve_all(true);
    let warm_secs = started.elapsed().as_secs_f64();

    let capacity = capacity();
    let iters = |solved: &[(Allocation, GpWarmStart)]| -> Vec<usize> {
        solved
            .iter()
            .map(|(_, hint)| hint.stats.newton_iterations)
            .collect()
    };
    let mut run = DriftRun {
        cold_newton_iters: iters(&cold),
        warm_newton_iters: iters(&warm),
        warm_fallbacks: 0,
        divergence: 0.0,
        cold_secs,
        warm_secs,
    };
    for ((epoch, cold), warm) in script().iter().zip(&cold).zip(&warm) {
        let oracle = closed_form(epoch, &capacity);
        for (alloc, hint) in [cold, warm] {
            run.divergence = run.divergence.max(divergence(alloc, &oracle));
            run.warm_fallbacks += usize::from(hint.stats.warm == WarmOutcome::FellBack);
        }
    }
    run
}

/// One point of the epoch-scaling curve: the script's first two epochs at
/// a market size, for one credit GP (see `solve_gp`). The first epoch is
/// solved
/// cold on construction; what is measured is the second, cold and warm
/// from the first's optimum — the step a credit market takes every tick.
#[derive(Debug)]
pub struct ScalingPoint {
    inner: CreditInner,
    capacity: Capacity,
    epoch: DriftEpoch,
    hint: GpWarmStart,
}

impl ScalingPoint {
    /// The point at `agents` agents for the GP behind `inner`.
    pub fn new(inner: CreditInner, agents: usize) -> ScalingPoint {
        let [first, epoch]: [DriftEpoch; 2] = script_for(agents, 2)
            .try_into()
            .expect("two epochs were asked for");
        let mut point = ScalingPoint {
            inner,
            capacity: capacity_for(agents),
            epoch: first,
            hint: GpWarmStart::default(),
        };
        point.hint = point.solve(false).1;
        point.epoch = epoch;
        point
    }

    /// What is solved: `weighted-nash-gp` or `credit-equal-slowdown`.
    pub fn label(&self) -> &'static str {
        match self.inner {
            CreditInner::MaxWelfare => "weighted-nash-gp",
            CreditInner::EqualSlowdown => "credit-equal-slowdown",
        }
    }

    /// Solves the measured epoch: from the previous epoch's optimum when
    /// `warm`, otherwise cold.
    pub fn solve(&self, warm: bool) -> (Allocation, GpWarmStart) {
        solve_gp(
            self.inner,
            &self.epoch,
            &self.capacity,
            warm.then_some(&self.hint),
        )
    }

    /// The agreement gate: both solves of the measured epoch against an
    /// oracle that shares nothing with the solver — the closed form to
    /// 1e-6 for the weighted-Nash program; for `credit-equal-slowdown` the
    /// lowest weighted level `U_i^{w_i}` (the weighted utility of the
    /// tilted agent) within 1e-5 of the max-min bound
    /// ([`egalitarian_gap`]) and every capacity exhausted within 1e-3.
    /// Returns the `(cold, warm)` work reports, which are for the curve
    /// and not gated here: the warm start's count gates are
    /// [`DriftRun::check`]'s, on the program they were tuned on.
    ///
    /// # Errors
    ///
    /// Returns a description of the first solve that disagreed.
    pub fn check(&self) -> Result<(SolveStats, SolveStats), String> {
        let (cold, warm) = (self.solve(false), self.solve(true));
        for (label, (alloc, hint)) in [("cold", &cold), ("warm", &warm)] {
            let (gap, limit) = match self.inner {
                CreditInner::MaxWelfare => {
                    let oracle = closed_form(&self.epoch, &self.capacity);
                    (divergence(alloc, &oracle), 1e-6)
                }
                CreditInner::EqualSlowdown => {
                    let tilted = CreditMechanism::new(self.inner, self.epoch.weights.clone())
                        .and_then(|m| m.tilted(&self.epoch.agents))
                        .expect("one positive weight per agent");
                    let level = *hint.x.last().expect("the level variable is last");
                    (egalitarian_gap(&tilted, alloc, &self.capacity, level), 1e-5)
                }
            };
            if gap.is_nan() || gap > limit || !alloc.is_exhaustive(&self.capacity, 1e-3) {
                return Err(format!(
                    "{label} {} solve at {} agents is {gap:.2e} from its oracle \
                     or leaves capacity unused",
                    self.label(),
                    self.epoch.agents.len()
                ));
            }
        }
        Ok((cold.1.stats, warm.1.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_script_is_what_it_says() {
        let epochs = script();
        assert_eq!(epochs.len(), EPOCHS);
        let mut demand_changes = 0;
        for (e, pair) in epochs.windows(2).enumerate() {
            let (before, after) = (&pair[0], &pair[1]);
            assert_eq!(after.agents.len(), AGENTS);
            let moved = before
                .agents
                .iter()
                .zip(&after.agents)
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(moved, usize::from((e + 1) % 4 == 3), "epoch {}", e + 1);
            demand_changes += moved;
            for (a, b) in before.weights.iter().zip(&after.weights) {
                let step = (b / a - 1.0).abs();
                if e + 1 == SHOCK_EPOCH {
                    assert!((step - 0.10).abs() < 1e-12, "{step}");
                } else {
                    assert!(step <= 0.005, "{step}");
                }
                assert!((0.4..=1.6).contains(b));
            }
        }
        assert_eq!(demand_changes, 4);
    }

    #[test]
    fn warm_never_costs_more_than_cold_and_no_hint_is_abandoned() {
        let run = run();
        run.check().unwrap_or_else(|gate| panic!("{gate}: {run:?}"));
        assert!(run.cold_newton_iters.iter().all(|&c| c <= 45), "{run:?}");
        // Ledger-sized drift is where a warm start pays: well under two
        // thirds of the cold iterations outside the shock and the demand
        // changes.
        let quiet = |e: &usize| *e > 0 && *e != SHOCK_EPOCH && e % 4 != 3;
        let sum = |iters: &[usize]| -> usize { (0..EPOCHS).filter(quiet).map(|e| iters[e]).sum() };
        assert!(
            3 * sum(&run.warm_newton_iters) <= 2 * sum(&run.cold_newton_iters),
            "{run:?}"
        );
    }

    #[test]
    fn scaling_points_agree_with_their_oracles_at_the_ends_of_the_curve() {
        // The sizes in between are gated where they are timed (the
        // `warm_vs_cold_gp` bench group).
        for inner in [CreditInner::MaxWelfare, CreditInner::EqualSlowdown] {
            for agents in [SCALING_AGENTS[0], SCALING_AGENTS[3]] {
                let point = ScalingPoint::new(inner, agents);
                let (cold, warm) = point.check().unwrap_or_else(|gate| panic!("{gate}"));
                println!("{} x {agents}: cold {cold:?}, warm {warm:?}", point.label());
                if inner == CreditInner::MaxWelfare {
                    assert_eq!(warm.warm, WarmOutcome::Used);
                    assert!(warm.newton_iterations <= cold.newton_iterations);
                }
            }
        }
        // At the script's own size a point is the script's second epoch.
        let point = ScalingPoint::new(CreditInner::MaxWelfare, AGENTS);
        assert_eq!(point.epoch.weights, script()[1].weights);
        assert_eq!(point.capacity, capacity());
    }
}

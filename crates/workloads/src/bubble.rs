//! Bubble-Up-style sensitivity profiling (§4.4's first offline option).
//!
//! "A user can co-locate its task with synthetic benchmarks that exert
//! tunable pressure on the memory hierarchy [Mars et al.]. Thus, profiles
//! would quantify cache and bandwidth sensitivity."
//!
//! A [`Bubble`] is a co-runner whose cache footprint and bandwidth appetite
//! are dialed by a pressure knob. [`bubble_profile`] co-runs the target
//! workload against a sweep of bubble pressures on the shared platform and
//! reports the target's IPC degradation curve — an alternative route to the
//! same sensitivity information the 25-configuration sweep measures, usable
//! on machines where cache ways and bandwidth cannot be partitioned for
//! profiling.

use ref_sim::config::PlatformConfig;
use ref_sim::system::MulticoreSystem;
use ref_sim::trace::Op;

use crate::generator::{SyntheticWorkload, WorkloadParams};
use crate::profiles::Benchmark;

/// A tunable-pressure co-runner.
///
/// Pressure 0 is a nearly idle companion; pressure 1 streams flat out
/// through a working set sized to evict the whole L2.
///
/// # Examples
///
/// ```
/// use ref_workloads::bubble::Bubble;
///
/// let light = Bubble::new(0.1).unwrap();
/// let heavy = Bubble::new(0.9).unwrap();
/// assert!(heavy.params().streaming_fraction > light.params().streaming_fraction);
/// ```
#[derive(Debug, Clone)]
pub struct Bubble {
    params: WorkloadParams,
}

impl Bubble {
    /// Creates a bubble exerting the given pressure in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a message if `pressure` is outside `[0, 1]` or not finite.
    pub fn new(pressure: f64) -> Result<Bubble, String> {
        if !(pressure.is_finite() && (0.0..=1.0).contains(&pressure)) {
            return Err(format!("pressure must be in [0, 1], got {pressure}"));
        }
        // Scale memory intensity, streaming appetite and footprint with
        // pressure; keep everything independent (a pure resource hog).
        let params = WorkloadParams {
            memory_fraction: 0.05 + 0.9 * pressure,
            hot_fraction: 0.2 * (1.0 - pressure),
            streaming_fraction: 0.3 + 0.6 * pressure,
            working_set_bytes: (256.0 * 1024.0 * (1.0 + 15.0 * pressure)) as u64,
            store_fraction: 0.3,
            dependent_fraction: 0.05,
        };
        Ok(Bubble { params })
    }

    /// The generator parameters this pressure maps to.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// The bubble's instruction stream.
    ///
    /// # Panics
    ///
    /// Never panics: the parameter mapping is valid for every pressure in
    /// `[0, 1]` (covered by tests).
    pub(crate) fn stream(&self, seed: u64) -> SyntheticWorkload {
        SyntheticWorkload::new(self.params, seed ^ 0x00B0_B1E5).expect("pressure mapping is valid")
    }
}

/// One point of a bubble sensitivity curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BubblePoint {
    /// Co-runner pressure.
    pub pressure: f64,
    /// Target IPC while co-running.
    pub target_ipc: f64,
    /// Target L2 hit rate while co-running.
    pub target_l2_hit_rate: f64,
}

/// A target workload's degradation curve under increasing co-runner
/// pressure.
#[derive(Debug, Clone, PartialEq)]
pub struct BubbleCurve {
    /// Target workload name.
    pub workload: String,
    /// Points in increasing pressure order.
    pub points: Vec<BubblePoint>,
}

impl BubbleCurve {
    /// Relative IPC drop from the lightest to the heaviest bubble — a
    /// scalar sensitivity score.
    ///
    /// # Panics
    ///
    /// Panics if the curve has fewer than two points.
    pub fn sensitivity(&self) -> f64 {
        assert!(self.points.len() >= 2, "curve needs at least two points");
        let first = self.points.first().expect("nonempty").target_ipc;
        let last = self.points.last().expect("nonempty").target_ipc;
        1.0 - last / first
    }
}

/// Co-runs `target` against bubbles at the given pressures and measures
/// its IPC each time.
///
/// Target and bubble share the platform's L2 (half each, as Bubble-Up's
/// unmanaged co-location would on a two-core node) and the DRAM channel.
///
/// # Errors
///
/// Returns a message for an empty or invalid pressure list.
pub fn bubble_profile(
    target: &Benchmark,
    pressures: &[f64],
    instructions: u64,
    seed: u64,
) -> Result<BubbleCurve, String> {
    if pressures.is_empty() {
        return Err("need at least one pressure".to_string());
    }
    let platform = PlatformConfig::asplos14();
    let mut points = Vec::with_capacity(pressures.len());
    for &p in pressures {
        let bubble = Bubble::new(p)?;
        let mut system = MulticoreSystem::new(&platform, &[0.5, 0.5], &[0.5, 0.5])
            .with_dependent_load_fractions(vec![
                target.params.dependent_fraction,
                bubble.params().dependent_fraction,
            ]);
        let reports = system.run(
            vec![
                Box::new(target.stream(seed)) as Box<dyn Iterator<Item = Op>>,
                Box::new(bubble.stream(seed)),
            ],
            instructions,
        );
        points.push(BubblePoint {
            pressure: p,
            target_ipc: reports[0].ipc(),
            target_l2_hit_rate: reports[0].l2.hit_rate(),
        });
    }
    Ok(BubbleCurve {
        workload: target.name.to_string(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::by_name;

    #[test]
    fn pressure_validation() {
        assert!(Bubble::new(-0.1).is_err());
        assert!(Bubble::new(1.1).is_err());
        assert!(Bubble::new(f64::NAN).is_err());
        assert!(Bubble::new(0.0).is_ok());
        assert!(Bubble::new(1.0).is_ok());
    }

    #[test]
    fn all_pressures_produce_valid_generators() {
        for i in 0..=10 {
            let pressure = i as f64 / 10.0;
            let b = Bubble::new(pressure).unwrap();
            assert!(b.params().validate().is_ok(), "pressure {pressure}");
            let ops: Vec<_> = b.stream(1).take(100).collect();
            assert_eq!(ops.len(), 100);
        }
    }

    #[test]
    fn pressure_scales_appetite_monotonically() {
        let mut last_stream = 0.0;
        let mut last_mem = 0.0;
        for i in 0..=5 {
            let b = Bubble::new(i as f64 / 5.0).unwrap();
            assert!(b.params().streaming_fraction >= last_stream);
            assert!(b.params().memory_fraction >= last_mem);
            last_stream = b.params().streaming_fraction;
            last_mem = b.params().memory_fraction;
        }
    }

    #[test]
    fn heavier_bubble_degrades_target() {
        let target = by_name("dedup").unwrap();
        let curve = bubble_profile(target, &[0.0, 1.0], 60_000, 7).unwrap();
        assert_eq!(curve.points.len(), 2);
        assert!(
            curve.points[1].target_ipc < curve.points[0].target_ipc,
            "{curve:?}"
        );
        assert!(curve.sensitivity() > 0.0);
    }

    #[test]
    fn memory_bound_target_is_more_sensitive_than_compute_bound() {
        // dedup saturates the memory system; a compute-bound app whose
        // accesses hit the L1 and whose rare misses overlap (low
        // dependence) barely notices the bubble. Note that *latency-bound*
        // apps (high dependence, e.g. radiosity) are also bubble-sensitive
        // through bank-conflict latency — a realistic interference channel
        // this model captures — so the insensitive comparator must be both
        // traffic-light and dependence-light.
        let compute_bound = Benchmark {
            name: "compute_bound",
            suite: crate::profiles::Suite::Parsec,
            params: WorkloadParams {
                memory_fraction: 0.05,
                hot_fraction: 0.9,
                streaming_fraction: 0.0,
                working_set_bytes: 32 * 1024,
                store_fraction: 0.1,
                dependent_fraction: 0.05,
            },
            expected_class: crate::profiles::PreferenceClass::Cache,
        };
        let sensitive = bubble_profile(by_name("dedup").unwrap(), &[0.0, 1.0], 60_000, 7)
            .unwrap()
            .sensitivity();
        let insensitive = bubble_profile(&compute_bound, &[0.0, 1.0], 60_000, 7)
            .unwrap()
            .sensitivity();
        assert!(
            sensitive > 3.0 * insensitive.max(0.001),
            "dedup {sensitive} vs compute-bound {insensitive}"
        );
    }

    #[test]
    fn empty_pressures_rejected() {
        let target = by_name("fft").unwrap();
        assert!(bubble_profile(target, &[], 1000, 1).is_err());
        assert!(bubble_profile(target, &[2.0], 1000, 1).is_err());
    }
}

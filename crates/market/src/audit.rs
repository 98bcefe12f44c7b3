//! Per-epoch fairness auditing with violation counters.
//!
//! Every epoch the engine checks the allocation it just granted against the
//! utilities the agents reported, using [`ref_core::properties`]. REF's
//! theorem guarantees SI, EF and PE for the *reported* utilities, so any
//! violation signals an engine bug (stale cache, numerical drift) — the
//! auditor is the service's tripwire, not a statement about hidden truths.
//!
//! Early epochs run on the naive prior while estimators warm up, and a
//! `DemandChanged` flush briefly re-enters that regime, so the auditor
//! tracks violations both in total and after a configurable warm-up epoch
//! count per agent population; the service-level objective is *zero*
//! post-warm-up violations.

use ref_core::properties::FairnessReport;

/// Counts fairness violations over the market's lifetime.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Auditor {
    /// Epochs audited in total.
    pub epochs_audited: u64,
    /// Epochs with at least one sharing-incentive violation.
    pub si_violation_epochs: u64,
    /// Epochs with at least one envy edge.
    pub ef_violation_epochs: u64,
    /// Epochs that were not Pareto efficient.
    pub pe_violation_epochs: u64,
    /// SI-violation epochs occurring after the warm-up window.
    pub si_after_warmup: u64,
    /// EF-violation epochs occurring after the warm-up window.
    pub ef_after_warmup: u64,
    /// PE-violation epochs occurring after the warm-up window.
    pub pe_after_warmup: u64,
    /// Epochs with at least one temporal (windowed) SI violation.
    pub temporal_si_violation_epochs: u64,
    /// Temporal-SI-violation epochs occurring after the warm-up window.
    pub temporal_si_after_warmup: u64,
}

impl Auditor {
    /// Creates an auditor with zeroed counters.
    pub(crate) fn new() -> Auditor {
        Auditor::default()
    }

    /// Records one epoch's fairness report.
    ///
    /// `warm` is whether the epoch still falls in the warm-up window (the
    /// engine derives it from epochs-since-last-membership-change).
    pub(crate) fn record(&mut self, report: &FairnessReport, warm: bool) {
        self.epochs_audited += 1;
        if !report.sharing_incentives() {
            self.si_violation_epochs += 1;
            if !warm {
                self.si_after_warmup += 1;
            }
        }
        if !report.envy_free() {
            self.ef_violation_epochs += 1;
            if !warm {
                self.ef_after_warmup += 1;
            }
        }
        if !report.pareto_efficient {
            self.pe_violation_epochs += 1;
            if !warm {
                self.pe_after_warmup += 1;
            }
        }
    }

    /// Records one epoch's temporal sharing-incentive verdict (whether any
    /// agent's full delivered-vs-entitled window fell below the slack).
    /// Called once per audited epoch, alongside [`Auditor::record`].
    pub(crate) fn record_temporal(&mut self, violated: bool, warm: bool) {
        if violated {
            self.temporal_si_violation_epochs += 1;
            if !warm {
                self.temporal_si_after_warmup += 1;
            }
        }
    }

    /// SI violations after warm-up (the headline service objective).
    pub fn si_violations_after_warmup(&self) -> u64 {
        self.si_after_warmup
    }

    /// Whether every audited epoch after warm-up satisfied all three
    /// properties.
    pub fn clean_after_warmup(&self) -> bool {
        self.si_after_warmup == 0 && self.ef_after_warmup == 0 && self.pe_after_warmup == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ref_core::mechanism::{Mechanism, ProportionalElasticity};
    use ref_core::resource::{Allocation, Bundle, Capacity};
    use ref_core::utility::CobbDouglas;

    fn fair_report() -> FairnessReport {
        let agents = vec![
            CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap(),
            CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap(),
        ];
        let c = Capacity::new(vec![24.0, 12.0]).unwrap();
        let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        FairnessReport::check(&agents, &alloc, &c)
    }

    fn unfair_report() -> FairnessReport {
        let agents = vec![
            CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap(),
            CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap(),
        ];
        let c = Capacity::new(vec![24.0, 12.0]).unwrap();
        let alloc = Allocation::new(
            vec![
                Bundle::new(vec![23.0, 11.0]).unwrap(),
                Bundle::new(vec![1.0, 1.0]).unwrap(),
            ],
            &c,
        )
        .unwrap();
        FairnessReport::check(&agents, &alloc, &c)
    }

    #[test]
    fn clean_epochs_leave_counters_zero() {
        let mut a = Auditor::new();
        for _ in 0..5 {
            a.record(&fair_report(), false);
        }
        assert_eq!(a.epochs_audited, 5);
        assert!(a.clean_after_warmup());
        assert_eq!(a.si_violation_epochs, 0);
    }

    #[test]
    fn warmup_violations_do_not_count_against_the_slo() {
        let mut a = Auditor::new();
        a.record(&unfair_report(), true);
        assert_eq!(a.si_violation_epochs, 1);
        assert_eq!(a.si_violations_after_warmup(), 0);
        assert!(a.clean_after_warmup());
        a.record(&unfair_report(), false);
        assert_eq!(a.si_violations_after_warmup(), 1);
        assert!(!a.clean_after_warmup());
    }

    #[test]
    fn temporal_verdicts_are_counted_separately() {
        let mut a = Auditor::new();
        a.record_temporal(false, false);
        assert_eq!(a.temporal_si_violation_epochs, 0);
        a.record_temporal(true, true);
        assert_eq!(a.temporal_si_violation_epochs, 1);
        assert_eq!(a.temporal_si_after_warmup, 0);
        a.record_temporal(true, false);
        assert_eq!(a.temporal_si_violation_epochs, 2);
        assert_eq!(a.temporal_si_after_warmup, 1);
        // Temporal verdicts do not touch the per-epoch SLO.
        assert!(a.clean_after_warmup());
    }
}

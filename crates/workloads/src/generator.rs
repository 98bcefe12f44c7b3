//! Synthetic memory-reference generators.
//!
//! Each workload is modeled as a parameterized instruction stream whose
//! memory behaviour reproduces, in aggregate, the locality and bandwidth
//! signature of the benchmark it stands in for (PARSEC / SPLASH-2x /
//! Phoenix; see `DESIGN.md` for the substitution argument).
//!
//! The generator mixes three access populations:
//!
//! - **hot**: a small region that lives in the L1 (register-blocked inner
//!   loops, stack);
//! - **resident**: reuse within a working set, with reuse distances drawn
//!   log-uniformly so the L2 hit rate — and therefore log-IPC — varies
//!   smoothly (approximately affinely) with the log of the allocated cache
//!   capacity, the shape Cobb-Douglas fitting expects;
//! - **streaming**: sequential blocks with no reuse, which consume pure
//!   bandwidth.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ref_sim::trace::Op;

/// Base address of the hot region.
const HOT_BASE: u64 = 0;
/// Base address of the resident (working-set) region.
const RESIDENT_BASE: u64 = 1 << 28;
/// Base address of the streaming region.
const STREAM_BASE: u64 = 1 << 32;
/// The streaming pointer wraps after this many bytes to bound addresses.
const STREAM_WRAP: u64 = 1 << 30;
/// Smallest reuse distance for resident accesses (spans the L1).
const REUSE_MIN_BYTES: u64 = 16 * 1024;

/// Parameters describing one synthetic workload.
///
/// # Examples
///
/// ```
/// use ref_workloads::WorkloadParams;
///
/// let p = WorkloadParams {
///     memory_fraction: 0.25,
///     hot_fraction: 0.5,
///     streaming_fraction: 0.1,
///     working_set_bytes: 1 << 20,
///     store_fraction: 0.3,
///     dependent_fraction: 0.6,
/// };
/// assert!(p.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Fraction of instructions that access memory, in `(0, 1]`.
    pub memory_fraction: f64,
    /// Of memory accesses, the fraction hitting the hot (L1-resident)
    /// region, in `[0, 1]`.
    pub hot_fraction: f64,
    /// Of memory accesses, the fraction streaming with no reuse, in
    /// `[0, 1]`. Together with `hot_fraction` must not exceed 1; the
    /// remainder is resident traffic.
    pub streaming_fraction: f64,
    /// Size of the resident working set in bytes.
    pub working_set_bytes: u64,
    /// Fraction of memory accesses that are stores, in `[0, 1]`.
    pub store_fraction: f64,
    /// Fraction of loads whose consumers stall the pipeline until the data
    /// returns, in `[0, 1]`. High values model pointer-chasing
    /// (latency-bound) code; low values model streaming (bandwidth-bound)
    /// code whose misses overlap.
    pub dependent_fraction: f64,
}

impl WorkloadParams {
    /// Checks that the parameters are internally consistent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.memory_fraction > 0.0 && self.memory_fraction <= 1.0) {
            return Err(format!(
                "memory_fraction must be in (0, 1], got {}",
                self.memory_fraction
            ));
        }
        for (name, v) in [
            ("hot_fraction", self.hot_fraction),
            ("streaming_fraction", self.streaming_fraction),
            ("store_fraction", self.store_fraction),
            ("dependent_fraction", self.dependent_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0, 1], got {v}"));
            }
        }
        if self.hot_fraction + self.streaming_fraction > 1.0 {
            return Err(format!(
                "hot + streaming fractions exceed 1: {} + {}",
                self.hot_fraction, self.streaming_fraction
            ));
        }
        if self.working_set_bytes < REUSE_MIN_BYTES {
            return Err(format!(
                "working set must be at least {REUSE_MIN_BYTES} bytes, got {}",
                self.working_set_bytes
            ));
        }
        Ok(())
    }
}

/// An unbounded deterministic instruction stream for one workload.
///
/// Two generators built with the same parameters and seed produce identical
/// streams.
///
/// # Examples
///
/// ```
/// use ref_workloads::{SyntheticWorkload, WorkloadParams};
///
/// let params = WorkloadParams {
///     memory_fraction: 0.3,
///     hot_fraction: 0.4,
///     streaming_fraction: 0.2,
///     working_set_bytes: 1 << 20,
///     store_fraction: 0.25,
///     dependent_fraction: 0.6,
/// };
/// let ops: Vec<_> = SyntheticWorkload::new(params, 42).unwrap().take(100).collect();
/// assert_eq!(ops.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    params: WorkloadParams,
    rng: ChaCha8Rng,
    stream_cursor: u64,
    hot_bytes: u64,
}

impl SyntheticWorkload {
    /// Creates a generator from validated parameters.
    ///
    /// # Errors
    ///
    /// Returns the validation message if `params` are inconsistent (see
    /// [`WorkloadParams::validate`]).
    pub fn new(params: WorkloadParams, seed: u64) -> Result<SyntheticWorkload, String> {
        params.validate()?;
        Ok(SyntheticWorkload {
            params,
            rng: ChaCha8Rng::seed_from_u64(seed),
            stream_cursor: 0,
            hot_bytes: 8 * 1024,
        })
    }

    fn next_address(&mut self) -> u64 {
        let p: f64 = self.rng.gen();
        if p < self.params.hot_fraction {
            HOT_BASE + self.rng.gen_range(0..self.hot_bytes / 64) * 64
        } else if p < self.params.hot_fraction + self.params.streaming_fraction {
            let a = STREAM_BASE + self.stream_cursor;
            self.stream_cursor = (self.stream_cursor + 64) % STREAM_WRAP;
            a
        } else {
            // Resident: reuse distance log-uniform in
            // [working_set / 8, working_set] (floored at REUSE_MIN_BYTES),
            // then a uniform block within that radius. Concentrating the
            // radii near the working set keeps the L2 hit rate — and hence
            // log IPC — steeply and smoothly responsive to the log of the
            // allocated capacity, which linearizes the Cobb-Douglas fit.
            let reuse_min = (self.params.working_set_bytes / 8).max(REUSE_MIN_BYTES) as f64;
            let span = (self.params.working_set_bytes as f64 / reuse_min).ln();
            let radius = (reuse_min * (self.rng.gen::<f64>() * span).exp()) as u64;
            let radius_blocks = (radius / 64).max(1);
            RESIDENT_BASE + self.rng.gen_range(0..radius_blocks) * 64
        }
    }
}

impl Iterator for SyntheticWorkload {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.rng.gen::<f64>() >= self.params.memory_fraction {
            return Some(Op::Compute);
        }
        let addr = self.next_address();
        if self.rng.gen::<f64>() < self.params.store_fraction {
            Some(Op::Store(addr))
        } else {
            Some(Op::Load(addr))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> WorkloadParams {
        WorkloadParams {
            memory_fraction: 0.3,
            hot_fraction: 0.4,
            streaming_fraction: 0.2,
            working_set_bytes: 1 << 20,
            store_fraction: 0.25,
            dependent_fraction: 0.6,
        }
    }

    #[test]
    fn validation_catches_bad_fractions() {
        let mut p = params();
        p.memory_fraction = 0.0;
        assert!(p.validate().is_err());
        let mut p = params();
        p.hot_fraction = 0.8;
        p.streaming_fraction = 0.5;
        assert!(p.validate().is_err());
        let mut p = params();
        p.store_fraction = 1.5;
        assert!(p.validate().is_err());
        let mut p = params();
        p.dependent_fraction = -0.1;
        assert!(p.validate().is_err());
        let mut p = params();
        p.working_set_bytes = 1024;
        assert!(p.validate().is_err());
        assert!(params().validate().is_ok());
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<_> = SyntheticWorkload::new(params(), 7)
            .unwrap()
            .take(500)
            .collect();
        let b: Vec<_> = SyntheticWorkload::new(params(), 7)
            .unwrap()
            .take(500)
            .collect();
        assert_eq!(a, b);
        let c: Vec<_> = SyntheticWorkload::new(params(), 8)
            .unwrap()
            .take(500)
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn memory_fraction_is_respected() {
        let n = 50_000;
        let mem = SyntheticWorkload::new(params(), 1)
            .unwrap()
            .take(n)
            .filter(|op| op.is_memory())
            .count();
        let frac = mem as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "memory fraction {frac}");
    }

    #[test]
    fn store_fraction_is_respected() {
        let n = 50_000;
        let ops: Vec<_> = SyntheticWorkload::new(params(), 1)
            .unwrap()
            .take(n)
            .collect();
        let mem = ops.iter().filter(|op| op.is_memory()).count();
        let stores = ops.iter().filter(|op| matches!(op, Op::Store(_))).count();
        let frac = stores as f64 / mem as f64;
        assert!((frac - 0.25).abs() < 0.03, "store fraction {frac}");
    }

    #[test]
    fn address_populations_land_in_their_regions() {
        let ops: Vec<_> = SyntheticWorkload::new(params(), 3)
            .unwrap()
            .take(100_000)
            .collect();
        let addrs: Vec<u64> = ops.iter().filter_map(|op| op.address()).collect();
        let hot = addrs.iter().filter(|&&a| a < RESIDENT_BASE).count();
        let resident = addrs
            .iter()
            .filter(|&&a| (RESIDENT_BASE..STREAM_BASE).contains(&a))
            .count();
        let streaming = addrs.iter().filter(|&&a| a >= STREAM_BASE).count();
        let total = addrs.len() as f64;
        assert!((hot as f64 / total - 0.4).abs() < 0.02);
        assert!((resident as f64 / total - 0.4).abs() < 0.02);
        assert!((streaming as f64 / total - 0.2).abs() < 0.02);
    }

    #[test]
    fn resident_addresses_stay_in_working_set() {
        let p = params();
        let max = RESIDENT_BASE + p.working_set_bytes;
        let ok = SyntheticWorkload::new(p, 5)
            .unwrap()
            .take(100_000)
            .filter_map(|op| op.address())
            .filter(|a| (RESIDENT_BASE..STREAM_BASE).contains(a))
            .all(|a| a < max);
        assert!(ok);
    }

    #[test]
    fn streaming_advances_sequentially() {
        let mut p = params();
        p.hot_fraction = 0.0;
        p.streaming_fraction = 1.0;
        p.memory_fraction = 1.0;
        let addrs: Vec<u64> = SyntheticWorkload::new(p, 9)
            .unwrap()
            .take(100)
            .filter_map(|op| op.address())
            .collect();
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(*a, STREAM_BASE + i as u64 * 64);
        }
    }
}

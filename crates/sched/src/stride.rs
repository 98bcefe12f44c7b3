//! Stride scheduling: the deterministic counterpart of lottery scheduling
//! (Waldspurger & Weihl), with bounded allocation error.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A stride scheduler over clients holding tickets.
///
/// Each client has `stride = S / tickets` and a pass value; every quantum
/// goes to the client with the smallest pass, whose pass then advances by
/// its stride. Unlike the lottery, allocation error is bounded by one
/// quantum per client over any interval.
///
/// # Examples
///
/// ```
/// use ref_sched::stride::StrideScheduler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut s = StrideScheduler::new(vec![3.0, 1.0])?;
/// let winners: Vec<usize> = (0..4).map(|_| s.next_quantum()).collect();
/// assert_eq!(winners.iter().filter(|&&w| w == 0).count(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StrideScheduler {
    strides: Vec<f64>,
    /// One [`key`] per client, smallest on top: the next winner.
    passes: BinaryHeap<Reverse<u128>>,
    quanta: Vec<u64>,
}

/// `(pass, client)` packed so that one integer comparison orders by pass,
/// then by client: equal passes go to the lowest client index, as a
/// first-minimum scan over the clients would pick. Passes are positive
/// (possibly infinite), never NaN or `-0.0`, and for such floats the bit
/// pattern orders as the number does.
fn key(pass: f64, client: usize) -> u128 {
    (u128::from(pass.to_bits()) << 64) | client as u128
}

/// Splits a [`key`] back into `(pass, client)`.
fn unkey(key: u128) -> (f64, usize) {
    (f64::from_bits((key >> 64) as u64), key as u64 as usize)
}

/// The common stride numerator.
const STRIDE_ONE: f64 = (1_u64 << 20) as f64;

impl StrideScheduler {
    /// Creates a scheduler with one ticket count per client.
    ///
    /// # Errors
    ///
    /// Returns a message if `tickets` is empty or any count is not strictly
    /// positive and finite.
    pub fn new(tickets: Vec<f64>) -> Result<StrideScheduler, String> {
        if tickets.is_empty() {
            return Err("need at least one client".to_string());
        }
        if tickets.iter().any(|t| !(t.is_finite() && *t > 0.0)) {
            return Err("ticket counts must be finite and positive".to_string());
        }
        let strides: Vec<f64> = tickets.iter().map(|t| STRIDE_ONE / t).collect();
        let passes = strides
            .iter()
            .enumerate()
            .map(|(client, pass)| Reverse(key(*pass, client)))
            .collect();
        let n = tickets.len();
        Ok(StrideScheduler {
            strides,
            passes,
            quanta: vec![0; n],
        })
    }

    /// Grants the next quantum to the client with the minimum pass.
    pub fn next_quantum(&mut self) -> usize {
        // Advancing the top in place costs one sift-down, not a pop and a push.
        let mut top = self.passes.peek_mut().expect("at least one client");
        let (pass, winner) = unkey(top.0);
        *top = Reverse(key(pass + self.strides[winner], winner));
        self.quanta[winner] += 1;
        winner
    }

    /// Quanta granted per client.
    pub fn quanta(&self) -> &[u64] {
        &self.quanta
    }

    /// Achieved service fractions (zeros before any quantum).
    pub fn service_shares(&self) -> Vec<f64> {
        let total: u64 = self.quanta.iter().sum();
        if total == 0 {
            vec![0.0; self.quanta.len()]
        } else {
            self.quanta
                .iter()
                .map(|q| *q as f64 / total as f64)
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(StrideScheduler::new(vec![]).is_err());
        assert!(StrideScheduler::new(vec![0.0]).is_err());
        assert!(StrideScheduler::new(vec![1.0, -2.0]).is_err());
    }

    #[test]
    fn shares_converge_exactly() {
        let mut s = StrideScheduler::new(vec![0.5, 0.3, 0.2]).unwrap();
        for _ in 0..10_000 {
            s.next_quantum();
        }
        let shares = s.service_shares();
        assert!((shares[0] - 0.5).abs() < 1e-3, "{shares:?}");
        assert!((shares[1] - 0.3).abs() < 1e-3, "{shares:?}");
        assert!((shares[2] - 0.2).abs() < 1e-3, "{shares:?}");
    }

    #[test]
    fn allocation_error_is_bounded() {
        // Over any prefix, |granted_i - expected_i| stays below ~1 quantum
        // per client (the stride-scheduling guarantee).
        let weights = [0.6, 0.25, 0.15];
        let mut s = StrideScheduler::new(weights.to_vec()).unwrap();
        let mut granted = [0_f64; 3];
        for step in 1..=2_000 {
            let w = s.next_quantum();
            granted[w] += 1.0;
            for c in 0..3 {
                let expected = weights[c] * step as f64;
                assert!(
                    (granted[c] - expected).abs() <= 1.5,
                    "step {step} client {c}: {} vs {expected}",
                    granted[c]
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut s = StrideScheduler::new(vec![2.0, 3.0, 5.0]).unwrap();
            (0..50).map(|_| s.next_quantum()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn two_to_one_pattern() {
        let mut s = StrideScheduler::new(vec![2.0, 1.0]).unwrap();
        let seq: Vec<usize> = (0..6).map(|_| s.next_quantum()).collect();
        assert_eq!(seq.iter().filter(|&&w| w == 0).count(), 4);
        assert_eq!(s.quanta(), &[4, 2]);
    }

    #[test]
    fn zero_state_before_running() {
        let s = StrideScheduler::new(vec![1.0, 1.0]).unwrap();
        assert_eq!(s.service_shares(), vec![0.0, 0.0]);
        assert_eq!(s.strides.len(), 2);
    }
}

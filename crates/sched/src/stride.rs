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

/// Bound on `T / s_i` for a bulk grant below `T`. A pass below `T` is then
/// under 2^40 strides, so rounding takes at most 2^-13 of a stride off an
/// addition and no pass stalls.
const BULK_SPAN: f64 = (1_u64 << 40) as f64;

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

    /// Grants `quanta` quanta, leaving the scheduler exactly where as many
    /// calls to [`next_quantum`](Self::next_quantum) would: the same
    /// [`quanta`](Self::quanta), the same passes and so the same winners
    /// afterwards.
    ///
    /// The loop is a k-way merge of the clients' pass sequences, each of
    /// which advances on its own, so its winners are the `quanta` smallest
    /// `(pass, client)` keys. All but at most one per client (plus one) are
    /// granted below a threshold without touching the heap; the rest go
    /// through [`next_quantum`](Self::next_quantum), as all of them do
    /// when no threshold exists (every stride infinite, say).
    pub fn run(&mut self, quanta: u64) {
        let bulk = self.grant_in_bulk(quanta);
        for _ in bulk..quanta {
            self.next_quantum();
        }
    }

    /// Grants every pass at or below [`bulk_threshold`](Self::bulk_threshold)
    /// and returns how many quanta that was, at most `quanta`.
    ///
    /// Every pass at or below the threshold precedes every pass above it in
    /// the loop's `(pass, client)` order, and a client's passes never
    /// decrease, so they are exactly the loop's next winners. Each client's
    /// pass advances by the loop's own additions in the loop's order, so it
    /// ends bit for bit where the loop leaves it. The threshold only decides
    /// how many quanta are granted here: if rounding admits more than
    /// `quanta`, none are.
    fn grant_in_bulk(&mut self, quanta: u64) -> u64 {
        let Some(threshold) = self.bulk_threshold(quanta) else {
            return 0;
        };
        let mut keys = std::mem::take(&mut self.passes).into_vec();
        let mut advanced = Vec::with_capacity(keys.len());
        let mut granted = 0;
        for &Reverse(k) in &keys {
            let (mut pass, client) = unkey(k);
            let stride = self.strides[client];
            let mut count = 0;
            while pass <= threshold {
                pass += stride;
                count += 1;
            }
            granted += count;
            if granted > quanta {
                self.passes = BinaryHeap::from(keys);
                return 0;
            }
            advanced.push((pass, count));
        }
        for (Reverse(k), (pass, count)) in keys.iter_mut().zip(advanced) {
            let client = unkey(*k).1;
            *k = key(pass, client);
            self.quanta[client] += count;
        }
        self.passes = BinaryHeap::from(keys);
        granted
    }

    /// The threshold `T` below which about `quanta` passes lie, or `None`
    /// if there is none to grant by.
    ///
    /// Over the `n` clients with a finite pass `h_i` and stride `s_i`, with
    /// `R = Σ 1/s_i` and `O = Σ h_i/s_i`, `T = (quanta − n + O) / R`.
    /// Client `i` has `⌊(T − h_i)/s_i⌋ + 1` passes at or below `T` when
    /// `T >= h_i − s_i`: more than `(T − h_i)/s_i` and at most one more,
    /// so together more than `quanta − n` and at most `quanta`. `T` is
    /// shrunk by a relative 1e-9 so that rounding in the passes does not
    /// admit more, which costs at most one more quantum for the heap.
    ///
    /// `T / s_i <= T R` stays below 2^40, so below `T` every addition
    /// advances a pass by nearly its stride and the bulk loop stays within
    /// about `quanta` steps; only a scheduler that has already granted
    /// some 10^12 quanta falls back to the heap.
    fn bulk_threshold(&self, quanta: u64) -> Option<f64> {
        if quanta == 0 {
            return None;
        }
        let (mut rate, mut offset, mut clients) = (0.0, 0.0, 0.0);
        let mut lowest = f64::NEG_INFINITY;
        for &Reverse(k) in self.passes.iter() {
            let (pass, client) = unkey(k);
            let stride = self.strides[client];
            // An infinite pass lies above any finite threshold.
            if pass.is_finite() && stride.is_finite() {
                rate += 1.0 / stride;
                offset += pass / stride;
                clients += 1.0;
                lowest = lowest.max(pass - stride);
            }
        }
        let threshold = (quanta as f64 - clients + offset) / rate * (1.0 - 1e-9);
        (threshold.is_finite() && threshold >= lowest && threshold * rate < BULK_SPAN)
            .then_some(threshold)
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
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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

    /// Random REF-like shares: positive, summing to at most one, a few at
    /// the engine's floor.
    fn market(rng: &mut ChaCha8Rng, clients: usize) -> Vec<f64> {
        let raw: Vec<f64> = (0..clients).map(|_| rng.gen_range(0.01..1.0)).collect();
        let total: f64 = raw.iter().sum();
        raw.iter()
            .map(|r| if *r < 0.03 { 1e-9 } else { r / total })
            .collect()
    }

    #[test]
    fn bulk_leaves_at_most_one_quantum_per_client_for_the_heap() {
        // The engine's regime: 2,000 quanta per resource per epoch on a
        // fresh scheduler. The heap grants what the bulk step leaves.
        let quanta = 2_000;
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        for (clients, bound) in [(48, 49), (128, 129), (2_000, 2_000)] {
            let mut worst = 0;
            for _ in 0..50 {
                let mut s = StrideScheduler::new(market(&mut rng, clients)).unwrap();
                let heap_steps = quanta - s.grant_in_bulk(quanta);
                assert!(
                    heap_steps <= bound,
                    "{clients} clients: {heap_steps} heap steps"
                );
                worst = worst.max(heap_steps);
            }
            assert!(worst > 0, "{clients} clients: the heap is never needed?");
            eprintln!("{clients} clients: at most {worst} of {quanta} quanta left for the heap");
        }
    }

    #[test]
    fn zero_state_before_running() {
        let s = StrideScheduler::new(vec![1.0, 1.0]).unwrap();
        assert_eq!(s.service_shares(), vec![0.0, 0.0]);
        assert_eq!(s.strides.len(), 2);
    }
}

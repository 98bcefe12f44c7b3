//! Deficit round robin: the O(1) member of the fair-queueing family.
//!
//! Where WFQ sorts by virtual finish time, DRR visits clients round-robin
//! and lets each serve requests up to an accumulating byte quantum
//! (deficit) proportional to its weight — constant work per decision, with
//! fairness bounds close to WFQ's for bounded request costs.

use std::collections::VecDeque;

/// A request waiting in a DRR queue.
#[derive(Debug, Clone, PartialEq)]
struct Queued<T> {
    item: T,
    cost: f64,
}

/// A deficit-round-robin scheduler over weighted clients.
///
/// # Examples
///
/// ```
/// use ref_sched::DeficitRoundRobin;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut q = DeficitRoundRobin::new(vec![3.0, 1.0])?;
/// for i in 0..8u32 {
///     q.enqueue(0, i, 1.0)?;
///     q.enqueue(1, 100 + i, 1.0)?;
/// }
/// for _ in 0..8 {
///     q.dequeue();
/// }
/// let shares = q.service_shares();
/// assert!((shares[0] - 0.75).abs() < 0.13);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DeficitRoundRobin<T> {
    weights: Vec<f64>,
    queues: Vec<VecDeque<Queued<T>>>,
    deficits: Vec<f64>,
    /// Quantum granted per round per unit weight.
    quantum: f64,
    cursor: usize,
    service: Vec<f64>,
}

impl<T> DeficitRoundRobin<T> {
    /// Creates a scheduler with one weight per client.
    ///
    /// # Errors
    ///
    /// Returns a message if `weights` is empty or any weight is not
    /// strictly positive and finite.
    pub fn new(weights: Vec<f64>) -> Result<DeficitRoundRobin<T>, String> {
        if weights.is_empty() {
            return Err("need at least one client".to_string());
        }
        if weights.iter().any(|w| !(w.is_finite() && *w > 0.0)) {
            return Err("weights must be finite and positive".to_string());
        }
        let max_w = weights.iter().fold(0.0_f64, |m, w| m.max(*w));
        let n = weights.len();
        Ok(DeficitRoundRobin {
            quantum: 1.0 / max_w,
            weights,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            deficits: vec![0.0; n],
            cursor: 0,
            service: vec![0.0; n],
        })
    }

    /// Enqueues a request of the given cost for a client.
    ///
    /// # Errors
    ///
    /// Returns a message if the client index is out of range or the cost
    /// is not strictly positive and finite.
    pub fn enqueue(&mut self, client: usize, item: T, cost: f64) -> Result<(), String> {
        if client >= self.weights.len() {
            return Err(format!("client {client} out of range"));
        }
        if !(cost.is_finite() && cost > 0.0) {
            return Err(format!("cost must be positive and finite, got {cost}"));
        }
        self.queues[client].push_back(Queued { item, cost });
        Ok(())
    }

    /// Serves the next request under the deficit discipline, returning
    /// `(client, item)`; `None` when every queue is empty.
    pub fn dequeue(&mut self) -> Option<(usize, T)> {
        if self.queues.iter().all(VecDeque::is_empty) {
            return None;
        }
        let n = self.weights.len();
        loop {
            let c = self.cursor;
            if self.queues[c].is_empty() {
                // Idle clients do not bank deficit (work conservation).
                self.deficits[c] = 0.0;
                self.cursor = (c + 1) % n;
                continue;
            }
            let head_cost = self.queues[c].front().expect("nonempty").cost;
            if self.deficits[c] >= head_cost {
                let q = self.queues[c].pop_front().expect("nonempty");
                self.deficits[c] -= q.cost;
                self.service[c] += q.cost;
                return Some((c, q.item));
            }
            // Grant this round's quantum and move on.
            self.deficits[c] += self.quantum * self.weights[c];
            self.cursor = (c + 1) % n;
        }
    }

    /// Achieved service fractions (zeros before any service).
    pub fn service_shares(&self) -> Vec<f64> {
        let total: f64 = self.service.iter().sum();
        if total == 0.0 {
            vec![0.0; self.service.len()]
        } else {
            self.service.iter().map(|s| s / total).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(DeficitRoundRobin::<u32>::new(vec![]).is_err());
        assert!(DeficitRoundRobin::<u32>::new(vec![0.0]).is_err());
        let mut q = DeficitRoundRobin::new(vec![1.0]).unwrap();
        assert!(q.enqueue(1, 0u32, 1.0).is_err());
        assert!(q.enqueue(0, 0u32, -1.0).is_err());
    }

    #[test]
    fn backlogged_shares_match_weights() {
        let weights = vec![0.6, 0.3, 0.1];
        let mut q = DeficitRoundRobin::new(weights.clone()).unwrap();
        for i in 0..20_000u32 {
            for c in 0..3 {
                q.enqueue(c, i, 1.0).unwrap();
            }
            q.dequeue();
        }
        let shares = q.service_shares();
        for (s, w) in shares.iter().zip(&weights) {
            assert!((s - w).abs() < 0.02, "{shares:?}");
        }
    }

    #[test]
    fn work_conserving() {
        let mut q = DeficitRoundRobin::new(vec![0.5, 0.5]).unwrap();
        for i in 0..5u32 {
            q.enqueue(0, i, 1.0).unwrap();
        }
        let mut count = 0;
        while let Some((c, _)) = q.dequeue() {
            assert_eq!(c, 0);
            count += 1;
        }
        assert_eq!(count, 5);
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn variable_costs_respected() {
        // One heavy request costs as much as four light ones; long-run
        // service (in cost units) still follows the weights.
        let mut q = DeficitRoundRobin::new(vec![0.5, 0.5]).unwrap();
        for i in 0..4_000u32 {
            q.enqueue(0, i, 4.0).unwrap();
            for j in 0..4 {
                q.enqueue(1, i * 4 + j, 1.0).unwrap();
            }
            q.dequeue();
            q.dequeue();
        }
        let shares = q.service_shares();
        assert!((shares[0] - 0.5).abs() < 0.05, "{shares:?}");
    }

    #[test]
    fn fifo_within_client() {
        let mut q = DeficitRoundRobin::new(vec![1.0]).unwrap();
        for i in 0..5u32 {
            q.enqueue(0, i, 1.0).unwrap();
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.dequeue().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_state() {
        let q = DeficitRoundRobin::<u32>::new(vec![1.0, 2.0]).unwrap();
        assert!(q.queues.iter().all(VecDeque::is_empty));
        assert_eq!(q.service_shares(), vec![0.0, 0.0]);
        assert_eq!(q.weights.len(), 2);
    }
}

//! Property-based tests for the proportional-share schedulers.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ref_sched::{LotteryScheduler, StrideScheduler, WeightedFairQueue};

fn weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05..5.0f64, 2..6)
}

/// The stride scheduler as it stood before the heap: every quantum scans
/// all passes for the first minimum. Kept as the reference the heap must
/// reproduce winner for winner.
struct ScanStride {
    strides: Vec<f64>,
    passes: Vec<f64>,
}

impl ScanStride {
    fn new(tickets: &[f64]) -> ScanStride {
        let strides: Vec<f64> = tickets.iter().map(|t| (1_u64 << 20) as f64 / t).collect();
        ScanStride {
            passes: strides.clone(),
            strides,
        }
    }

    fn next_quantum(&mut self) -> usize {
        let winner = self
            .passes
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite passes"))
            .expect("at least one client")
            .0;
        self.passes[winner] += self.strides[winner];
        winner
    }
}

/// The floor a vanishing REF share is lifted to before it becomes a ticket
/// count.
const MIN_STRIDE_WEIGHT: f64 = 1e-9;

/// Weights as a REF allocation hands them to the scheduler: a few distinct
/// levels dealt to many clients, so equal passes are the rule (at the
/// start, and again whenever multiples of two strides coincide), some
/// shares at the floor, and now and then a ticket count whose stride is
/// infinite.
fn tied_weights() -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec(0.001..1.0f64, 1..5),
        prop::collection::vec(0usize..7, 1..48),
    )
        .prop_map(|(levels, picks)| {
            picks
                .into_iter()
                .map(|p| match p {
                    5 => MIN_STRIDE_WEIGHT,
                    6 => f64::MIN_POSITIVE,
                    p => levels[p % levels.len()],
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stride scheduling achieves the target proportions with bounded
    /// error for arbitrary weights.
    #[test]
    fn stride_converges_for_random_weights(w in weights()) {
        let total: f64 = w.iter().sum();
        let mut s = StrideScheduler::new(w.clone()).unwrap();
        let quanta = 20_000;
        for _ in 0..quanta {
            s.next_quantum();
        }
        for (share, weight) in s.service_shares().iter().zip(&w) {
            prop_assert!((share - weight / total).abs() < 5e-3, "{share} vs {}", weight / total);
        }
    }

    /// The heap grants every quantum to the client a first-minimum scan of
    /// the passes would pick, ties included.
    #[test]
    fn stride_heap_matches_the_scan(w in tied_weights()) {
        let mut heap = StrideScheduler::new(w.clone()).unwrap();
        let mut scan = ScanStride::new(&w);
        let mut granted = vec![0_u64; w.len()];
        for quantum in 0..600 {
            let winner = scan.next_quantum();
            prop_assert_eq!(heap.next_quantum(), winner, "quantum {}", quantum);
            granted[winner] += 1;
        }
        prop_assert_eq!(heap.quanta(), &granted[..]);
    }

    /// Backlogged WFQ achieves the target proportions for arbitrary
    /// weights.
    #[test]
    fn wfq_converges_for_random_weights(w in weights()) {
        let total: f64 = w.iter().sum();
        let mut q: WeightedFairQueue<u32> = WeightedFairQueue::new(w.clone()).unwrap();
        for i in 0..20_000u32 {
            for c in 0..w.len() {
                q.enqueue(c, i, 1.0).unwrap();
            }
            q.dequeue();
        }
        for (share, weight) in q.service_shares().iter().zip(&w) {
            prop_assert!((share - weight / total).abs() < 0.02);
        }
    }

    /// Lottery wins always sum to the number of draws, and empirical
    /// shares approach tickets.
    #[test]
    fn lottery_accounting_and_convergence(w in weights(), seed in 0u64..1_000) {
        let total: f64 = w.iter().sum();
        let mut s = LotteryScheduler::new(w.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let draws = 30_000u64;
        for _ in 0..draws {
            s.draw(&mut rng);
        }
        prop_assert_eq!(s.wins().iter().sum::<u64>(), draws);
        for (share, weight) in s.service_shares().iter().zip(&w) {
            prop_assert!((share - weight / total).abs() < 0.03);
        }
    }

    /// WFQ never serves an empty queue and preserves FIFO per client.
    #[test]
    fn wfq_fifo_within_client(w in weights(), items in 1u32..50) {
        let mut q: WeightedFairQueue<u32> = WeightedFairQueue::new(w.clone()).unwrap();
        for i in 0..items {
            q.enqueue(0, i, 1.0).unwrap();
        }
        let mut last: Option<u32> = None;
        while let Some((c, v)) = q.dequeue() {
            prop_assert_eq!(c, 0);
            if let Some(prev) = last {
                prop_assert!(v > prev);
            }
            last = Some(v);
        }
        prop_assert!(q.is_empty());
    }
}

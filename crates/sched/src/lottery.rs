//! Lottery scheduling (Waldspurger & Weihl), the randomized
//! proportional-share scheduler the paper cites for enforcing shares
//! (§4.4, reference 38).

use rand::Rng;

/// A lottery scheduler over clients holding tickets.
///
/// Each scheduling decision draws a ticket uniformly at random; the holder
/// wins the quantum. Expected service is proportional to ticket counts,
/// with variance shrinking as `1/sqrt(draws)`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use ref_sched::LotteryScheduler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut s = LotteryScheduler::new(vec![750.0, 250.0])?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// for _ in 0..10_000 {
///     s.draw(&mut rng);
/// }
/// let shares = s.service_shares();
/// assert!((shares[0] - 0.75).abs() < 0.02);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LotteryScheduler {
    tickets: Vec<f64>,
    total: f64,
    wins: Vec<u64>,
}

impl LotteryScheduler {
    /// Creates a scheduler with one ticket count per client.
    ///
    /// # Errors
    ///
    /// Returns a message if `tickets` is empty or any count is not strictly
    /// positive and finite.
    pub fn new(tickets: Vec<f64>) -> Result<LotteryScheduler, String> {
        if tickets.is_empty() {
            return Err("need at least one client".to_string());
        }
        if tickets.iter().any(|t| !(t.is_finite() && *t > 0.0)) {
            return Err("ticket counts must be finite and positive".to_string());
        }
        let total = tickets.iter().sum();
        Ok(LotteryScheduler {
            tickets,
            total,
            wins: vec![0; 0],
        }
        .init_wins())
    }

    fn init_wins(mut self) -> LotteryScheduler {
        self.wins = vec![0; self.tickets.len()];
        self
    }

    /// Draws one quantum, returning the winning client.
    pub fn draw<R: Rng>(&mut self, rng: &mut R) -> usize {
        let ticket = rng.gen_range(0.0..self.total);
        let mut acc = 0.0;
        let mut winner = self.tickets.len() - 1;
        for (i, t) in self.tickets.iter().enumerate() {
            acc += t;
            if ticket < acc {
                winner = i;
                break;
            }
        }
        self.wins[winner] += 1;
        winner
    }

    /// Quanta won per client.
    pub fn wins(&self) -> &[u64] {
        &self.wins
    }

    /// Achieved service fractions (zeros before any draw).
    pub fn service_shares(&self) -> Vec<f64> {
        let total: u64 = self.wins.iter().sum();
        if total == 0 {
            vec![0.0; self.wins.len()]
        } else {
            self.wins.iter().map(|w| *w as f64 / total as f64).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn validation() {
        assert!(LotteryScheduler::new(vec![]).is_err());
        assert!(LotteryScheduler::new(vec![0.0]).is_err());
        assert!(LotteryScheduler::new(vec![f64::NAN]).is_err());
        assert!(LotteryScheduler::new(vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn long_run_shares_match_tickets() {
        let mut s = LotteryScheduler::new(vec![0.6, 0.3, 0.1]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..50_000 {
            s.draw(&mut rng);
        }
        let shares = s.service_shares();
        assert!((shares[0] - 0.6).abs() < 0.01, "{shares:?}");
        assert!((shares[1] - 0.3).abs() < 0.01, "{shares:?}");
        assert!((shares[2] - 0.1).abs() < 0.01, "{shares:?}");
    }

    #[test]
    fn deterministic_with_seeded_rng() {
        let run = |seed| {
            let mut s = LotteryScheduler::new(vec![1.0, 2.0]).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..100).map(|_| s.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn shares_before_draws_are_zero() {
        let s = LotteryScheduler::new(vec![1.0]).unwrap();
        assert_eq!(s.service_shares(), vec![0.0]);
        assert_eq!(s.wins(), &[0]);
        assert_eq!(s.tickets.len(), 1);
    }
}

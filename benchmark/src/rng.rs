//! Seeded randomness for the script generator.
//!
//! Every draw is keyed: `Rng::keyed(seed, stream, index)` starts a fresh
//! SplitMix64 sequence from a hash of its three arguments, so op `i` of a
//! stream is a pure function of the seed and can be generated without
//! generating ops `0..i` first.

/// SplitMix64 (Steele, Lea & Flood): 64 bits of state, full period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for draw `index` of `stream` under `seed`.
    pub fn keyed(seed: u64, stream: u64, index: u64) -> Rng {
        Rng(mix(seed ^ mix(stream ^ mix(index))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Standard normal (Box–Muller, one of the pair).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// 64-bit FNV-1a, for golden hashes of generated scripts.
#[cfg(test)]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_draws_repeat_and_differ_by_key() {
        let a: Vec<u64> = (0..4).map(|i| Rng::keyed(11, 3, i).next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|i| Rng::keyed(11, 3, i).next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
        assert_ne!(Rng::keyed(12, 3, 0).next_u64(), a[0]);
        assert_ne!(Rng::keyed(11, 4, 0).next_u64(), a[0]);
    }

    #[test]
    fn unit_and_normal_have_the_right_moments() {
        let mut rng = Rng::keyed(1, 2, 3);
        let n = 20_000;
        let (mut su, mut sn, mut sn2) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            su += u;
            let z = rng.normal();
            sn += z;
            sn2 += z * z;
        }
        let n = n as f64;
        assert!((su / n - 0.5).abs() < 0.01);
        assert!((sn / n).abs() < 0.03);
        assert!((sn2 / n - 1.0).abs() < 0.05);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

//! The 64-bit mixing step behind the observation-log digest
//! ([`OnlineEstimator::log_digest`](crate::online::OnlineEstimator::log_digest))
//! and the market's state fingerprint.
//!
//! A digest here detects *accidental* divergence between two replicas
//! of one build — a skipped event, a flipped bit — not an adversary, so
//! the step is one xor, one multiply and one shift per 64-bit word
//! rather than a cryptographic round. It uses only `u64` arithmetic, so
//! the value does not depend on the platform's word size or byte order.

/// The digest of an empty sequence.
pub const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one 64-bit word into a running digest.
///
/// For a fixed `word` the step is a bijection of `state` (xor, multiply
/// by an odd constant and xor-shift are each invertible), and for a
/// fixed `state` a bijection of `word`. Two sequences that differ in
/// exactly one word therefore *always* end on different digests; any
/// other difference collides with probability about 2⁻⁶⁴. The step is
/// not commutative: swapping two unequal words changes the result.
#[inline]
pub fn mix(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(words: &[u64]) -> u64 {
        words.iter().fold(SEED, |d, w| mix(d, *w))
    }

    #[test]
    fn one_changed_word_always_changes_the_digest() {
        let base = [3_u64, 0, u64::MAX, 0x3ff0_0000_0000_0000, 7];
        for at in 0..base.len() {
            for bit in 0..64 {
                let mut other = base;
                other[at] ^= 1 << bit;
                assert_ne!(digest(&base), digest(&other), "word {at} bit {bit}");
            }
        }
    }

    #[test]
    fn order_and_length_matter() {
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[]), digest(&[0]));
        assert_ne!(digest(&[0]), digest(&[0, 0]));
    }
}

//! The market's state fingerprint: one 64-bit digest of everything a
//! [`MarketSnapshot`](crate::snapshot::MarketSnapshot) serializes,
//! computed from binary fields in `O(live agents × resources²)`.
//!
//! [`StateHasher`] is the digest sink of the snapshot walker
//! ([`StateView::walk`](crate::snapshot::StateView::walk)), whose other
//! sink writes the snapshot text: one traversal defines both, so the
//! digest covers exactly what the text covers, in the same order. The
//! hasher takes each value as a word, the length before every run the
//! text leaves implicit (so two different states never feed the same word
//! sequence), and a variant's index instead of its word. Each agent's
//! estimator enters as what is persisted of it — the triangular factor,
//! the fit and the counters — so the work does not grow with how many
//! observations the market has seen.
//!
//! A digest here detects *accidental* divergence between two replicas
//! of one build — a skipped event, a flipped bit — not an adversary, so
//! the step ([`mix`]) is one xor, one multiply and one shift per 64-bit
//! word rather than a cryptographic round. It uses only `u64` arithmetic,
//! so the value does not depend on the platform's word size or byte
//! order. The value is compared only between a primary and a standby of
//! one build and is never persisted; it may change whenever the walker
//! does.

use crate::snapshot::Sink;

/// The digest of an empty sequence.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one 64-bit word into a running digest.
///
/// For a fixed `word` the step is a bijection of `state` (xor, multiply
/// by an odd constant and xor-shift are each invertible), and for a
/// fixed `state` a bijection of `word`. Two sequences that differ in
/// exactly one word therefore *always* end on different digests; any
/// other difference collides with probability about 2⁻⁶⁴. The step is
/// not commutative: swapping two unequal words changes the result.
#[inline]
fn mix(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 32)
}

/// An order-sensitive 64-bit hasher over words ([`mix`]).
#[derive(Debug)]
pub(crate) struct StateHasher {
    state: u64,
    /// Words fed so far: the hasher's unit of work, which a test reads
    /// to show the fingerprint does not grow with history.
    #[cfg(test)]
    words: u64,
}

impl StateHasher {
    pub(crate) fn new() -> StateHasher {
        StateHasher {
            state: SEED,
            #[cfg(test)]
            words: 0,
        }
    }

    fn word(&mut self, word: u64) {
        self.state = mix(self.state, word);
        #[cfg(test)]
        {
            self.words += 1;
        }
    }

    #[cfg(test)]
    pub(crate) fn words(&self) -> u64 {
        self.words
    }

    pub(crate) fn finish(&self) -> u64 {
        self.state
    }
}

impl Sink for StateHasher {
    fn header(&mut self, version: u32) {
        self.word(u64::from(version));
    }

    fn line(&mut self, _: &'static str) -> &mut Self {
        self
    }

    fn int(&mut self, v: impl Into<i128>) {
        self.word(v.into() as u64);
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn len(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn variant(&mut self, index: u64, _: &str) {
        self.word(index);
    }

    fn name(&mut self, name: &str) {
        self.len(name.len());
        name.bytes().for_each(|b| self.word(u64::from(b)));
    }
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

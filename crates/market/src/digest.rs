//! The market's state fingerprint: one 64-bit digest of everything a
//! [`MarketSnapshot`](crate::snapshot::MarketSnapshot) serializes,
//! computed from binary fields in `O(live agents × resources)`.
//!
//! [`StateHasher`] is the digest sink of the snapshot walker
//! ([`StateView::walk`](crate::snapshot::StateView::walk)), whose other
//! sink writes the snapshot text: one traversal defines both, so the
//! digest covers exactly what the text covers, in the same order. The
//! hasher takes each value as a word, the length before every run the
//! text leaves implicit (so two different states never feed the same word
//! sequence), a variant's index instead of its word, and each agent's
//! observation log as its length and log digest, never row by row. The
//! engine hands the walker each estimator's *running* log digest
//! ([`OnlineEstimator::log_digest`]); a snapshot hands it none, and the
//! hasher re-digests the log from scratch — the independent oracle for the
//! incremental path.
//!
//! The value is compared only between a primary and a standby of one
//! build and is never persisted; it may change whenever the walker does.

use ref_core::digest;
use ref_core::fitting::FitPoint;
use ref_core::online::OnlineEstimator;

use crate::snapshot::Sink;

/// An order-sensitive 64-bit hasher over words ([`digest::mix`]).
#[derive(Debug)]
pub(crate) struct StateHasher {
    state: u64,
    /// Words fed so far: the hasher's unit of work, which a test reads
    /// to show the fingerprint does not walk observation logs.
    #[cfg(test)]
    words: u64,
}

impl StateHasher {
    pub(crate) fn new() -> StateHasher {
        StateHasher {
            state: digest::SEED,
            #[cfg(test)]
            words: 0,
        }
    }

    fn word(&mut self, word: u64) {
        self.state = digest::mix(self.state, word);
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

    fn log(&mut self, log: &[FitPoint], digest: Option<u64>) {
        self.len(log.len());
        self.word(digest.unwrap_or_else(|| OnlineEstimator::digest_of(log)));
    }
}

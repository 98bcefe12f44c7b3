//! The compact record of a [`MarketEvent`]: the bytes the serving tier's
//! in-memory journal keeps in place of the event itself.
//!
//! A record is one tag byte followed by the variant's fields in
//! declaration order:
//!
//! - ids and lengths as unsigned LEB128 varints, at most 10 bytes and in
//!   their shortest form;
//! - each `f64` as the 8 little-endian bytes of [`f64::to_bits`], so NaN
//!   payloads, signed zeros, subnormals and infinities come back bit for
//!   bit;
//! - a vector as a varint element count, then its elements;
//! - a string as a varint byte length, then its UTF-8;
//! - a [`CobbDouglas`] as its scale, then its elasticities as a vector.
//!
//! | tag | event                                   | fields after the tag          |
//! |-----|-----------------------------------------|-------------------------------|
//! | 1   | `AgentJoined`, `GroundTruth` source     | id, utility                   |
//! | 2   | `AgentJoined`, `Simulated` source       | id, benchmark                 |
//! | 3   | `AgentJoined`, `External` source        | id                            |
//! | 4   | `AgentLeft`                             | id                            |
//! | 5   | `DemandChanged`, no new truth           | id                            |
//! | 6   | `DemandChanged`, a new truth            | id, utility                   |
//! | 7   | `ObservationReported`                   | id, allocation, performance   |
//! | 8   | `CapacityRealloted`                     | capacity                      |
//! | 9   | `EpochTick`                             |                               |
//!
//! A two-resource observation of an agent below 128 is 27 bytes
//! (1 + 1 + 1 + 16 + 8); a tick is one.
//!
//! Events are recorded as they were sent, rejected ones included, so payloads
//! are never validated on the way in or out — except a utility, which
//! decodes through [`CobbDouglas::new`], the constructor every utility the
//! wire protocol accepts has already passed. Everything else that is not
//! a record [`MarketEvent::write_record`] can write is refused with
//! [`MarketError::Record`]: a truncated record, an unknown tag, an
//! over-long, overflowing or padded varint, invalid UTF-8, a utility the
//! constructor refuses. A length is checked against the bytes that remain
//! before anything is allocated for it.

use ref_core::utility::CobbDouglas;

use crate::agent::ObservationSource;
use crate::error::{MarketError, Result};
use crate::events::MarketEvent;

const JOIN_TRUTH: u8 = 1;
const JOIN_SIMULATED: u8 = 2;
const JOIN_EXTERNAL: u8 = 3;
const LEAVE: u8 = 4;
const DEMAND_KEEP: u8 = 5;
const DEMAND_TRUTH: u8 = 6;
const OBSERVE: u8 = 7;
const REALLOT: u8 = 8;
const TICK: u8 = 9;

/// The most bytes a `u64` takes as a LEB128 varint.
const MAX_VARINT: usize = 10;

impl MarketEvent {
    /// Appends this event's record to `out`.
    pub fn write_record(&self, out: &mut Vec<u8>) {
        match self {
            MarketEvent::AgentJoined { id, source } => match source {
                ObservationSource::GroundTruth(truth) => {
                    out.push(JOIN_TRUTH);
                    put_varint(out, *id);
                    put_utility(out, truth);
                }
                ObservationSource::Simulated { benchmark } => {
                    out.push(JOIN_SIMULATED);
                    put_varint(out, *id);
                    put_varint(out, benchmark.len() as u64);
                    out.extend_from_slice(benchmark.as_bytes());
                }
                ObservationSource::External => {
                    out.push(JOIN_EXTERNAL);
                    put_varint(out, *id);
                }
            },
            MarketEvent::AgentLeft { id } => {
                out.push(LEAVE);
                put_varint(out, *id);
            }
            MarketEvent::DemandChanged { id, new_truth } => match new_truth {
                None => {
                    out.push(DEMAND_KEEP);
                    put_varint(out, *id);
                }
                Some(truth) => {
                    out.push(DEMAND_TRUTH);
                    put_varint(out, *id);
                    put_utility(out, truth);
                }
            },
            MarketEvent::ObservationReported {
                id,
                allocation,
                performance,
            } => {
                out.push(OBSERVE);
                put_varint(out, *id);
                put_f64s(out, allocation);
                put_f64(out, *performance);
            }
            MarketEvent::CapacityRealloted { capacity } => {
                out.push(REALLOT);
                put_f64s(out, capacity);
            }
            MarketEvent::EpochTick => out.push(TICK),
        }
    }

    /// Decodes the record at the start of `bytes`, returning the event
    /// and the number of bytes it took. Bytes after the record are left
    /// alone.
    ///
    /// # Errors
    ///
    /// [`MarketError::Record`] for anything
    /// [`write_record`](MarketEvent::write_record) would not have written
    /// (see the module docs); it never panics.
    pub fn read_record(bytes: &[u8]) -> Result<(MarketEvent, usize)> {
        let mut r = Reader { bytes, at: 0 };
        let event = match r.byte()? {
            JOIN_TRUTH => MarketEvent::AgentJoined {
                id: r.varint()?,
                source: ObservationSource::GroundTruth(r.utility()?),
            },
            JOIN_SIMULATED => MarketEvent::AgentJoined {
                id: r.varint()?,
                source: ObservationSource::Simulated {
                    benchmark: r.string()?,
                },
            },
            JOIN_EXTERNAL => MarketEvent::AgentJoined {
                id: r.varint()?,
                source: ObservationSource::External,
            },
            LEAVE => MarketEvent::AgentLeft { id: r.varint()? },
            DEMAND_KEEP => MarketEvent::DemandChanged {
                id: r.varint()?,
                new_truth: None,
            },
            DEMAND_TRUTH => MarketEvent::DemandChanged {
                id: r.varint()?,
                new_truth: Some(r.utility()?),
            },
            OBSERVE => MarketEvent::ObservationReported {
                id: r.varint()?,
                allocation: r.f64s()?,
                performance: r.f64()?,
            },
            REALLOT => MarketEvent::CapacityRealloted {
                capacity: r.f64s()?,
            },
            TICK => MarketEvent::EpochTick,
            tag => return Err(refused(format!("unknown tag {tag}"))),
        };
        Ok((event, r.at))
    }
}

fn refused(msg: String) -> MarketError {
    MarketError::Record(msg)
}

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn put_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_bits().to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    put_varint(out, values.len() as u64);
    for &value in values {
        put_f64(out, value);
    }
}

fn put_utility(out: &mut Vec<u8>, utility: &CobbDouglas) {
    put_f64(out, utility.scale());
    put_f64s(out, utility.elasticities());
}

/// A cursor over one record's bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// The next `n` bytes, or an error if fewer remain.
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let remaining = self.bytes.len() - self.at;
        if n > remaining {
            return Err(refused(format!(
                "record needs {n} more bytes at offset {}, {remaining} remain",
                self.at
            )));
        }
        let taken = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(taken)
    }

    fn byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64> {
        let mut value = 0;
        for group in 0..MAX_VARINT {
            let byte = self.byte()?;
            // The tenth group holds the top bit alone, and ends the varint.
            if group == MAX_VARINT - 1 && byte > 1 {
                return Err(refused("varint overflows 64 bits".to_string()));
            }
            value |= u64::from(byte & 0x7f) << (7 * group);
            if byte & 0x80 == 0 {
                if byte == 0 && group > 0 {
                    return Err(refused("varint is not in its shortest form".to_string()));
                }
                return Ok(value);
            }
        }
        unreachable!("the tenth group either ends the varint or is refused")
    }

    /// A varint count of `width`-byte items, and the bytes they span.
    /// The count is checked against what remains before anything is
    /// allocated for it.
    fn counted(&mut self, width: usize) -> Result<&'a [u8]> {
        let count = self.varint()?;
        let bytes = usize::try_from(count)
            .ok()
            .and_then(|count| count.checked_mul(width))
            .ok_or_else(|| refused(format!("length {count} overflows the address space")))?;
        self.take(bytes)
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64_le(self.take(8)?))
    }

    fn f64s(&mut self) -> Result<Vec<f64>> {
        Ok(self.counted(8)?.chunks_exact(8).map(f64_le).collect())
    }

    fn string(&mut self) -> Result<String> {
        let text = std::str::from_utf8(self.counted(1)?)
            .map_err(|e| refused(format!("benchmark name is not UTF-8: {e}")))?;
        Ok(text.to_string())
    }

    fn utility(&mut self) -> Result<CobbDouglas> {
        let scale = self.f64()?;
        let elasticities = self.f64s()?;
        CobbDouglas::new(scale, elasticities).map_err(|e| refused(format!("utility: {e}")))
    }
}

fn f64_le(bytes: &[u8]) -> f64 {
    let mut word = [0; 8];
    word.copy_from_slice(bytes);
    f64::from_bits(u64::from_le_bytes(word))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(event: &MarketEvent) -> Vec<u8> {
        let mut out = Vec::new();
        event.write_record(&mut out);
        out
    }

    #[test]
    fn a_serve_mem_observe_is_27_bytes_and_a_tick_one() {
        let observe = MarketEvent::ObservationReported {
            id: 127,
            allocation: vec![0.5, 0.25],
            performance: 0.4,
        };
        assert_eq!(record(&observe).len(), 27);
        assert_eq!(record(&MarketEvent::EpochTick), [TICK]);
    }

    #[test]
    fn varints_take_their_shortest_form() {
        for (value, len) in [(0, 1), (127, 1), (128, 2), (u64::MAX, MAX_VARINT)] {
            let mut out = Vec::new();
            put_varint(&mut out, value);
            assert_eq!(out.len(), len, "{value}");
            let mut r = Reader { bytes: &out, at: 0 };
            assert_eq!(r.varint().unwrap(), value);
        }
        // Zero padded to two groups, and 2^64 in ten.
        let two_to_the_64 = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        for bad in [&[0x80, 0x00][..], &two_to_the_64] {
            let mut r = Reader { bytes: bad, at: 0 };
            assert!(matches!(r.varint(), Err(MarketError::Record(_))), "{bad:?}");
        }
    }
}

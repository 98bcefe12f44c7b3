//! Replication-stream framing properties, mirroring `wal_recovery`'s
//! crash model on the wire: a frame is only ever surfaced whole and
//! checksum-verified. Arbitrary truncation at any byte offset yields
//! `Incomplete` (read more), a flipped bit anywhere in the frame yields
//! `Corrupt` (drop the connection) or `Incomplete` — never a decoded
//! payload — so a standby can never apply a partial or damaged record.
//! Behind the envelope, the one payload decoder both standby drivers
//! call turns hostile bytes into nothing a standby applies.

use std::time::Duration;

use proptest::prelude::*;

use ref_core::utility::CobbDouglas;
use ref_market::{MarketEvent, ObservationSource};
use ref_serve::repl::{parse_frame, rec_frame, Frame};
use ref_serve::repl_core::Stream;
use ref_serve::{decode_frame, encode_frame, FrameDecode, ReplConfig, ReplCore};

/// Decodes every complete frame from a byte stream, stopping at the
/// first incomplete or corrupt tail. Returns the payloads and what the
/// tail looked like.
fn decode_stream(mut buf: &[u8]) -> (Vec<Vec<u8>>, FrameDecode) {
    let mut frames = Vec::new();
    loop {
        match decode_frame(buf) {
            FrameDecode::Complete { payload, consumed } => {
                frames.push(payload);
                buf = &buf[consumed..];
                if buf.is_empty() {
                    return (frames, FrameDecode::Incomplete);
                }
            }
            tail => return (frames, tail),
        }
    }
}

proptest! {
    /// Encode → decode round-trips any payload, consuming exactly the
    /// frame's bytes.
    #[test]
    fn round_trips_any_payload(payload in proptest::collection::vec(0u8..=255u8, 0..512)) {
        let frame = encode_frame(&payload);
        match decode_frame(&frame) {
            FrameDecode::Complete { payload: got, consumed } => {
                prop_assert_eq!(got, payload);
                prop_assert_eq!(consumed, frame.len());
            }
            other => prop_assert!(false, "expected Complete, got {:?}", other),
        }
    }

    /// Truncating a stream of frames at *any* byte offset yields exactly
    /// the complete prefix frames and an `Incomplete` tail — a partial
    /// record is never surfaced, at any cut point.
    #[test]
    fn truncation_at_any_offset_never_yields_a_partial_record(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255u8, 0..64), 1..5),
        cut_unit in 0.0f64..1.0,
    ) {
        let mut stream = Vec::new();
        let mut boundaries = Vec::new();
        for payload in &payloads {
            stream.extend_from_slice(&encode_frame(payload));
            boundaries.push(stream.len());
        }
        let cut = ((stream.len() as f64) * cut_unit) as usize;
        let (frames, tail) = decode_stream(&stream[..cut]);
        // Exactly the frames whose final byte survived the cut.
        let expect = boundaries.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(frames.len(), expect);
        for (frame, payload) in frames.iter().zip(payloads.iter()) {
            prop_assert_eq!(frame, payload);
        }
        prop_assert_eq!(tail, FrameDecode::Incomplete);
    }

    /// Flipping any single bit of a frame is detected: the CRC (payload
    /// and checksum bytes; CRC32 catches all single-bit errors) or the
    /// length check (header bytes) refuses the frame. Decoding never
    /// produces a payload from a damaged frame.
    #[test]
    fn any_single_bit_flip_is_detected(
        payload in proptest::collection::vec(0u8..=255u8, 0..256),
        flip_unit in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut frame = encode_frame(&payload);
        let offset = ((frame.len() as f64) * flip_unit) as usize % frame.len();
        frame[offset] ^= 1 << bit;
        match decode_frame(&frame) {
            // Length-field flips can point past the buffer (read more —
            // and the stream then dies on the CRC or the peer's close);
            // everything else must fail the checksum or length bound
            // outright.
            FrameDecode::Incomplete => prop_assert!(offset < 4, "payload flip read as short"),
            FrameDecode::Corrupt(_) => {}
            FrameDecode::Complete { .. } => {
                prop_assert!(false, "bit flip at byte {} went undetected", offset)
            }
        }
    }

    /// Decoding arbitrary garbage never panics and never fabricates a
    /// frame longer than the input.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255u8, 0..128)) {
        match decode_frame(&bytes) {
            FrameDecode::Complete { consumed, .. } => prop_assert!(consumed <= bytes.len()),
            FrameDecode::Incomplete | FrameDecode::Corrupt(_) => {}
        }
    }

    /// Random payloads inside a valid envelope — any bytes, and `rec`
    /// shaped ones (the tag, a sequence, then anything) — go through the
    /// shared decoder. It never panics. A JSON message never makes a
    /// standby's core answer `Apply`, the one verdict that reaches
    /// `apply_repl`; and the decoder yields a `rec` only for exactly the
    /// bytes a primary's `rec_frame` writes for that sequence and event.
    #[test]
    fn hostile_payloads_never_reach_apply(
        rec_shaped in 0u8..2,
        seq in 0u64..=u64::MAX,
        bytes in proptest::collection::vec(0u8..=255u8, 0..64),
    ) {
        let payload = if rec_shaped == 1 {
            [&[0][..], &seq.to_le_bytes(), &bytes].concat()
        } else {
            bytes
        };
        let frame = encode_frame(&payload);
        let FrameDecode::Complete { payload, .. } = decode_frame(&frame) else {
            panic!("a valid envelope decodes");
        };
        match parse_frame(payload) {
            Some(Frame::Rec { seq, event, record }) => {
                let mut again = Vec::new();
                event.write_record(&mut again);
                prop_assert_eq!(&again, &record);
                prop_assert_eq!(rec_frame(seq, &record), frame);
            }
            Some(msg) => {
                let config = ReplConfig::standby("s:1", "p:1");
                let mut standby = ReplCore::new(&config, 7, 0, 0, Duration::ZERO);
                let verdict = standby.on_frame(msg, "p:1", Duration::ZERO);
                prop_assert!(!matches!(verdict, Stream::Apply { .. }), "{:?}", verdict);
            }
            None => {}
        }
    }

    /// A record a primary wrote, cut short or with bytes after it, is no
    /// frame at all: the decoder refuses it.
    #[test]
    fn a_damaged_record_is_refused(
        seq in 0u64..=u64::MAX,
        which in 0usize..4,
        cut_unit in 0.0f64..1.0,
        extra in proptest::collection::vec(0u8..=255u8, 0..3),
    ) {
        let truth = CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap();
        let event = [
            MarketEvent::EpochTick,
            MarketEvent::AgentLeft { id: seq },
            MarketEvent::AgentJoined { id: 3, source: ObservationSource::GroundTruth(truth) },
            MarketEvent::ObservationReported {
                id: 127,
                allocation: vec![0.5, 0.25],
                performance: 0.4,
            },
        ][which].clone();
        let mut record = Vec::new();
        event.write_record(&mut record);
        let kept = if extra.is_empty() {
            (record.len() as f64 * cut_unit) as usize
        } else {
            record.len()
        };
        let payload = [&[0][..], &seq.to_le_bytes(), &record[..kept], &extra].concat();
        prop_assert_eq!(parse_frame(payload), None);
    }
}

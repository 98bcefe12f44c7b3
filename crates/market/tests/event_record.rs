//! The event record against its contract: every event comes back bit for
//! bit, and bytes that are not a record are refused without a panic.
//!
//! Equality is by bits (`MarketEvent`'s `PartialEq` compares `f64`s as
//! numbers, so it would pass a record that turned `-0` into `0` and fail
//! one that kept a NaN). Accepted bytes are also canonical: re-encoding
//! what was decoded gives back exactly the bytes consumed, for valid
//! records and for random bytes that happen to decode.
//!
//! A counting allocator watches the current thread only, so the refusal
//! of an over-long length can be shown to allocate nothing for it while
//! the other tests run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use ref_core::utility::CobbDouglas;
use ref_market::{MarketError, MarketEvent, ObservationSource};

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// Counts the bytes the current thread allocates.
struct PerThread;

fn note(bytes: usize) {
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the thread-local counter is a side effect only, and it needs
// no allocation or destructor of its own.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static PER_THREAD: PerThread = PerThread;

/// Bytes the current thread allocates running `f`, and its result.
fn allocated<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (ALLOCATED.with(Cell::get) - before, out)
}

/// An event's fields with every `f64` as its bits.
#[derive(Debug, PartialEq)]
enum Bits {
    JoinTruth(u64, (u64, Vec<u64>)),
    JoinSimulated(u64, String),
    JoinExternal(u64),
    Leave(u64),
    Demand(u64, Option<(u64, Vec<u64>)>),
    Observe(u64, Vec<u64>, u64),
    Reallot(Vec<u64>),
    Tick,
}

fn words(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn utility_bits(u: &CobbDouglas) -> (u64, Vec<u64>) {
    (u.scale().to_bits(), words(u.elasticities()))
}

fn bits(event: &MarketEvent) -> Bits {
    match event {
        MarketEvent::AgentJoined { id, source } => match source {
            ObservationSource::GroundTruth(u) => Bits::JoinTruth(*id, utility_bits(u)),
            ObservationSource::Simulated { benchmark } => {
                Bits::JoinSimulated(*id, benchmark.clone())
            }
            ObservationSource::External => Bits::JoinExternal(*id),
        },
        MarketEvent::AgentLeft { id } => Bits::Leave(*id),
        MarketEvent::DemandChanged { id, new_truth } => {
            Bits::Demand(*id, new_truth.as_ref().map(utility_bits))
        }
        MarketEvent::ObservationReported {
            id,
            allocation,
            performance,
        } => Bits::Observe(*id, words(allocation), performance.to_bits()),
        MarketEvent::CapacityRealloted { capacity } => Bits::Reallot(words(capacity)),
        MarketEvent::EpochTick => Bits::Tick,
        other => panic!("an event variant this test does not know: {other:?}"),
    }
}

/// Whether `bytes` are refused as a record, with the typed error.
fn refused(bytes: &[u8]) -> bool {
    matches!(MarketEvent::read_record(bytes), Err(MarketError::Record(_)))
}

fn record(event: &MarketEvent) -> Vec<u8> {
    let mut out = Vec::new();
    event.write_record(&mut out);
    out
}

/// Quiet and signalling NaNs of both signs with payloads, signed zeros,
/// subnormals, infinities and the extremes.
const SPECIALS: [u64; 14] = [
    0x7ff8_0000_0000_0000,
    0x7ff8_dead_beef_0001,
    0xfff8_0000_0000_0007,
    0x7ff0_0000_0000_0001,
    0xfff4_0000_0000_0000,
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x800f_ffff_ffff_ffff,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x7fef_ffff_ffff_ffff,
    0x0010_0000_0000_0000,
    0x3ff0_0000_0000_0000,
];

const IDS: [u64; 5] = [0, 127, 128, u64::MAX - 1, u64::MAX];

/// Benchmark names, multi-byte UTF-8 and the empty name among them.
const NAMES: [&str; 5] = ["", "histogram", "é", "数据库🦀", "\u{0}ß€\u{10ffff}"];

/// Draws from a word: a special value one time in three, any bits else.
fn any_f64(word: u64) -> f64 {
    if word.is_multiple_of(3) {
        f64::from_bits(SPECIALS[(word / 3) as usize % SPECIALS.len()])
    } else {
        f64::from_bits(word)
    }
}

/// An event built from raw words; covers every variant. A utility is
/// one `CobbDouglas::new` accepts, as every utility a record decodes to
/// must be: elasticities include `-0`, `0` and subnormals.
struct Draw<'a> {
    words: &'a [u64],
    at: usize,
}

impl Draw<'_> {
    fn word(&mut self) -> u64 {
        let word = self.words[self.at % self.words.len()];
        self.at += 1;
        word.rotate_left(self.at as u32 * 7) ^ self.at as u64
    }

    fn id(&mut self) -> u64 {
        let word = self.word();
        if word.is_multiple_of(2) {
            IDS[(word / 2) as usize % IDS.len()]
        } else {
            word >> (word % 64)
        }
    }

    fn f64s(&mut self) -> Vec<f64> {
        let len = match self.word() % 8 {
            0 => 0,
            1 => 130 + (self.word() % 200) as usize,
            n => n as usize,
        };
        (0..len).map(|_| any_f64(self.word())).collect()
    }

    fn utility(&mut self) -> CobbDouglas {
        let scale = match self.word() % 4 {
            0 => f64::from_bits(1),
            1 => f64::MAX,
            _ => (self.word() >> 12) as f64 * 1e-3 + 1e-300,
        };
        let len = 1 + (self.word() % 5) as usize;
        let mut elasticities: Vec<f64> = (0..len)
            .map(|_| match self.word() % 4 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(1 + self.word() % 1000),
                _ => (self.word() >> 11) as f64 / (1u64 << 53) as f64,
            })
            .collect();
        if elasticities.iter().all(|a| *a == 0.0) {
            elasticities[0] = 0.5;
        }
        CobbDouglas::new(scale, elasticities).expect("a utility the constructor accepts")
    }

    fn event(&mut self) -> MarketEvent {
        match self.word() % 9 {
            0 => MarketEvent::AgentJoined {
                id: self.id(),
                source: ObservationSource::GroundTruth(self.utility()),
            },
            1 => MarketEvent::AgentJoined {
                id: self.id(),
                source: ObservationSource::Simulated {
                    benchmark: NAMES[self.word() as usize % NAMES.len()].repeat(1 + self.at % 3),
                },
            },
            2 => MarketEvent::AgentJoined {
                id: self.id(),
                source: ObservationSource::External,
            },
            3 => MarketEvent::AgentLeft { id: self.id() },
            4 => MarketEvent::DemandChanged {
                id: self.id(),
                new_truth: None,
            },
            5 => MarketEvent::DemandChanged {
                id: self.id(),
                new_truth: Some(self.utility()),
            },
            6 => MarketEvent::CapacityRealloted {
                capacity: self.f64s(),
            },
            7 => MarketEvent::EpochTick,
            _ => MarketEvent::ObservationReported {
                id: self.id(),
                allocation: self.f64s(),
                performance: any_f64(self.word()),
            },
        }
    }
}

/// One of each variant at its edges: ids 0 and `u64::MAX`, every special
/// `f64` in a vector and as the performance, empty and long vectors,
/// multi-byte names.
fn edge_events() -> Vec<MarketEvent> {
    let specials: Vec<f64> = SPECIALS.iter().map(|&b| f64::from_bits(b)).collect();
    let long: Vec<f64> = (0..1_000)
        .map(|i| f64::from_bits(i * 0x0123_4567_89ab))
        .collect();
    let truth = CobbDouglas::new(f64::from_bits(1), vec![-0.0, f64::from_bits(1), 0.0]).unwrap();
    let mut events = vec![
        MarketEvent::EpochTick,
        MarketEvent::CapacityRealloted { capacity: vec![] },
        MarketEvent::CapacityRealloted {
            capacity: long.clone(),
        },
        MarketEvent::CapacityRealloted {
            capacity: specials.clone(),
        },
    ];
    for id in IDS {
        events.extend([
            MarketEvent::AgentJoined {
                id,
                source: ObservationSource::GroundTruth(truth.clone()),
            },
            MarketEvent::AgentJoined {
                id,
                source: ObservationSource::External,
            },
            MarketEvent::AgentLeft { id },
            MarketEvent::DemandChanged {
                id,
                new_truth: None,
            },
            MarketEvent::DemandChanged {
                id,
                new_truth: Some(CobbDouglas::new(f64::MAX, vec![0.6, 0.4]).unwrap()),
            },
            MarketEvent::ObservationReported {
                id,
                allocation: vec![],
                performance: f64::NAN,
            },
            MarketEvent::ObservationReported {
                id,
                allocation: long.clone(),
                performance: -0.0,
            },
        ]);
        for name in NAMES {
            events.push(MarketEvent::AgentJoined {
                id,
                source: ObservationSource::Simulated {
                    benchmark: name.to_string(),
                },
            });
        }
        for &performance in &specials {
            events.push(MarketEvent::ObservationReported {
                id,
                allocation: specials.clone(),
                performance,
            });
        }
    }
    events
}

/// Encodes `events` into one column, decodes it back record by record,
/// and checks the bits and the canonical bytes of each.
fn round_trip(events: &[MarketEvent]) -> Result<(), TestCaseError> {
    let mut column = Vec::new();
    let mut ends = Vec::new();
    for event in events {
        event.write_record(&mut column);
        ends.push(column.len());
    }
    let mut at = 0;
    for (event, end) in events.iter().zip(ends) {
        let (decoded, len) = MarketEvent::read_record(&column[at..])
            .map_err(|e| TestCaseError::fail(format!("{event:?}: {e}")))?;
        prop_assert_eq!(at + len, end, "{:?}", event);
        prop_assert_eq!(bits(&decoded), bits(event));
        prop_assert_eq!(record(&decoded), &column[at..end]);
        at = end;
    }
    Ok(())
}

#[test]
fn every_variant_round_trips_at_its_edges() {
    let events = edge_events();
    round_trip(&events).unwrap();
    let observe = MarketEvent::ObservationReported {
        id: 127,
        allocation: vec![0.37, 0.81],
        performance: 0.5,
    };
    assert_eq!(record(&observe).len(), 27);
    assert_eq!(record(&MarketEvent::EpochTick).len(), 1);
}

#[test]
fn every_strict_prefix_of_a_record_is_refused() {
    for event in edge_events() {
        let bytes = record(&event);
        for len in 0..bytes.len() {
            assert!(
                refused(&bytes[..len]),
                "{len} of {} bytes of {event:?} decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn unknown_tags_are_refused() {
    for tag in std::iter::once(0).chain(10..=255) {
        let bytes = [tag, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert!(refused(&bytes), "tag {tag} decoded");
    }
}

#[test]
fn over_long_overflowing_and_padded_varints_are_refused() {
    let leave = 4;
    let mut eleven = vec![leave];
    eleven.extend([0x80; 10]);
    eleven.push(0x00);
    let mut two_to_the_64 = vec![leave];
    two_to_the_64.extend([0x80; 9]);
    two_to_the_64.push(0x02);
    let mut ten_continued = vec![leave];
    ten_continued.extend([0xff; 10]);
    ten_continued.push(0x01);
    for bytes in [
        eleven,
        two_to_the_64,
        ten_continued,
        vec![leave, 0x80, 0x00],
        vec![leave, 0xff, 0x80, 0x00],
    ] {
        assert!(refused(&bytes), "{bytes:?} decoded");
    }
    // `u64::MAX` itself is ten groups, the last holding one bit.
    let mut max = vec![leave];
    max.extend([0xff; 9]);
    max.push(0x01);
    let (event, len) = MarketEvent::read_record(&max).unwrap();
    assert_eq!((event, len), (MarketEvent::AgentLeft { id: u64::MAX }, 11));
}

#[test]
fn a_length_past_the_end_is_refused_before_anything_is_allocated_for_it() {
    let varint = |mut value: u64| {
        let mut out = Vec::new();
        while value >= 0x80 {
            out.push(value as u8 | 0x80);
            value >>= 7;
        }
        out.push(value as u8);
        out
    };
    // Observe (tag 7, agent 1), reallot (tag 8), a simulated join's name
    // (tag 2, agent 1) and a truth join's elasticities (tag 1, agent 1,
    // scale 1): each with a count far past the bytes that follow,
    // including counts whose byte length overflows.
    let heads: [&[u8]; 4] = [
        &[7, 1],
        &[8],
        &[2, 1],
        &[1, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f],
    ];
    for head in heads {
        for count in [17, 1 << 20, 1 << 40, 1 << 61, u64::MAX / 8 + 1, u64::MAX] {
            let mut bytes = head.to_vec();
            bytes.extend(varint(count));
            bytes.extend([0x11; 16]);
            let (bytes_allocated, decoded) = allocated(|| MarketEvent::read_record(&bytes));
            let Err(MarketError::Record(message)) = decoded else {
                panic!("count {count} after {head:?} gave {decoded:?}");
            };
            // The error's message is all it allocates.
            assert!(
                bytes_allocated <= 4 * message.len() as u64,
                "count {count} after {head:?} allocated {bytes_allocated} bytes"
            );
        }
    }
}

#[test]
fn invalid_utf8_and_refused_utilities_are_refused() {
    // A simulated join named by a lone continuation byte.
    let bad_name = [2, 1, 1, 0x80];
    assert!(refused(&bad_name));
    // A truth join whose scale is NaN, and one with no elasticities.
    let mut nan_scale = vec![1, 1];
    nan_scale.extend(f64::NAN.to_bits().to_le_bytes());
    nan_scale.push(1);
    nan_scale.extend(0.5f64.to_bits().to_le_bytes());
    let mut no_elasticities = vec![1, 1];
    no_elasticities.extend(1.0f64.to_bits().to_le_bytes());
    no_elasticities.push(0);
    assert!(refused(&nan_scale) && refused(&no_elasticities));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_events_round_trip_bit_for_bit(
        words in prop::collection::vec(0u64..=u64::MAX, 1..48),
        count in 1usize..24,
    ) {
        let mut draw = Draw { words: &words, at: 0 };
        let events: Vec<MarketEvent> = (0..count).map(|_| draw.event()).collect();
        round_trip(&events)?;
    }

    #[test]
    fn random_bytes_fail_closed_or_decode_canonically(
        raw in prop::collection::vec(0u64..=u64::MAX, 0..12),
        tag in 0u8..=12,
        cut in 0usize..96,
    ) {
        // A tag near the valid range, then random bytes cut at a random
        // length.
        let mut bytes = vec![tag];
        bytes.extend(raw.iter().flat_map(|w| w.to_le_bytes()));
        bytes.truncate(cut.max(1));
        if let Ok((event, len)) = MarketEvent::read_record(&bytes) {
            prop_assert!(len <= bytes.len());
            prop_assert_eq!(record(&event), &bytes[..len]);
        }
    }
}

//! Hostile bytes in a WAL directory: a short durable history — several
//! segments, a checkpoint, events after it — with one file damaged by a
//! bit flip, a truncation, an inserted run of bytes or a deleted one,
//! then reopened by `ServiceCore::recover_with`.
//!
//! Recovery answers with a typed `io::Error`, or with an engine whose
//! state is the replay of a prefix of the events written: it never
//! panics, and never hands back an event that was not written.
//!
//! One damage escapes the prefix rule: deleting whole records from the
//! newest segment. Records carry no sequence number (a segment's name
//! holds its first one), so the shorter segment reads as a clean log, and
//! the engine comes back with a run of events missing — never one that
//! was not written. The property holds that answer to exactly that, and
//! `deleting_a_whole_record_from_the_newest_segment_is_noticed`, ignored
//! until records carry their sequence, states the prefix rule for it.

mod common;

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use ref_core::resource::Capacity;
use ref_market::{MarketConfig, MarketEngine, MarketEvent, ObservationSource};
use ref_serve::{FaultPlan, FsStorage, JournalLimit, ServiceCore, Wal, WalConfig};

use common::TempDir;

fn event_strategy() -> impl Strategy<Value = MarketEvent> {
    (0u8..6, 0u64..4, 0.5f64..8.0, 0.1f64..4.0).prop_map(|(sel, agent, a0, perf)| match sel {
        0 => MarketEvent::AgentJoined {
            id: agent,
            source: ObservationSource::External,
        },
        1 => MarketEvent::AgentLeft { id: agent },
        2 | 3 => MarketEvent::ObservationReported {
            id: agent,
            allocation: vec![a0, 1.0],
            performance: perf,
        },
        _ => MarketEvent::EpochTick,
    })
}

fn market() -> MarketConfig {
    MarketConfig::new(Capacity::new(vec![16.0, 8.0]).unwrap())
}

/// One way to damage a file's bytes.
#[derive(Debug, Clone)]
enum Damage {
    /// Flip bit `bit` of the byte at `at`.
    Flip { at: usize, bit: u8 },
    /// Keep only the bytes before `at`.
    Truncate { at: usize },
    /// Insert `bytes` before the byte at `at`.
    Insert { at: usize, bytes: Vec<u8> },
    /// Remove `len` bytes from `at` on.
    Delete { at: usize, len: usize },
}

impl Damage {
    /// Applies the damage to `bytes`, offsets taken modulo its length.
    fn apply(&self, bytes: &mut Vec<u8>) {
        let at = |at: usize| at % (bytes.len() + 1);
        match self {
            Damage::Flip { at: i, bit } if !bytes.is_empty() => {
                let i = i % bytes.len();
                bytes[i] ^= 1 << bit;
            }
            Damage::Flip { .. } => {}
            Damage::Truncate { at: i } => bytes.truncate(at(*i)),
            Damage::Insert { at: i, bytes: new } => {
                let i = at(*i);
                bytes.splice(i..i, new.iter().copied());
            }
            Damage::Delete { at: i, len } => {
                let i = at(*i);
                let end = (i + len).min(bytes.len());
                bytes.drain(i..end);
            }
        }
    }
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    let bytes = proptest::collection::vec(0u8..=255, 1..12);
    (0u8..4, 0usize..1 << 16, 0u8..8, bytes, 1usize..12).prop_map(|(kind, at, bit, bytes, len)| {
        match kind {
            0 => Damage::Flip { at, bit },
            1 => Damage::Truncate { at },
            2 => Damage::Insert { at, bytes },
            _ => Damage::Delete { at, len },
        }
    })
}

/// The offset of every record of a segment, and the end of the last one:
/// `[ len: u32 ][ crc: u32 ][ payload: len bytes ]` frames from offset 0.
fn record_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = vec![0];
    let mut at = 0;
    while let Some(len) = bytes.get(at..at + 4) {
        at += 8 + u32::from_le_bytes(len.try_into().unwrap()) as usize;
        if at > bytes.len() {
            break;
        }
        starts.push(at);
    }
    starts
}

/// How many records `damaged` lacks, when it is the segment `original`
/// with a run of whole records cut out and nothing else changed (a cut
/// across the boundary of two equal records can be one of these).
fn whole_records_cut(original: &[u8], damaged: &[u8]) -> Option<usize> {
    let starts = record_starts(original);
    let cut = |a: usize, b: usize| {
        let (head, tail) = (&original[..starts[a]], &original[starts[b]..]);
        damaged.len() == head.len() + tail.len()
            && damaged.starts_with(head)
            && damaged.ends_with(tail)
    };
    (0..starts.len())
        .flat_map(|b| (0..b).map(move |a| (a, b)))
        .find(|&(a, b)| cut(a, b))
        .map(|(a, b)| b - a)
}

/// The state after replaying `events` with `run` of them, from `from`
/// on, left out.
fn replay_without(events: &[MarketEvent], from: usize, run: usize) -> String {
    let mut engine = MarketEngine::new(market()).unwrap();
    for (i, event) in events.iter().enumerate() {
        if !(from..from + run).contains(&i) {
            let _ = engine.apply_now(event.clone());
        }
    }
    engine.snapshot().encode()
}

/// Every file in `dir`, sorted by name.
fn files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    files.sort();
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_damaged_file_recovers_a_written_prefix_or_a_typed_error(
        events in proptest::collection::vec(event_strategy(), 6..24),
        checkpoint_at in 0usize..24,
        segment_max_bytes in 24u64..96,
        retain_history in 0u8..2,
        file in 0usize..64,
        damage in damage_strategy(),
    ) {
        let dir = TempDir::new("hostile");
        let wal_config = WalConfig::new(dir.path())
            .with_segment_max_bytes(segment_max_bytes)
            .with_checkpoint_every(0)
            .with_retain_history(retain_history == 1);
        // A checkpoint after at least one event and before the last.
        let checkpoint_at = 1 + checkpoint_at % (events.len() - 1);

        // The state after every prefix of the history, by replay.
        let mut engine = MarketEngine::new(market()).unwrap();
        let mut prefixes = vec![engine.snapshot().encode()];
        {
            let mut wal = Wal::open(wal_config.clone(), FaultPlan::none()).unwrap().wal;
            for (i, event) in events.iter().enumerate() {
                wal.append(event).unwrap();
                let _ = engine.apply_now(event.clone());
                prefixes.push(engine.snapshot().encode());
                if i + 1 == checkpoint_at {
                    wal.checkpoint(&prefixes[i + 1]).unwrap();
                }
            }
        }
        let on_disk = files(dir.path());
        prop_assert!(on_disk.len() >= 2, "{on_disk:?}");

        let victim = &on_disk[file % on_disk.len()];
        let original = fs::read(victim).unwrap();
        let mut bytes = original.clone();
        damage.apply(&mut bytes);
        fs::write(victim, &bytes).unwrap();
        let segment = victim.extension().is_some_and(|e| e == "wal");
        let whole_records = whole_records_cut(&original, &bytes).filter(|_| segment);

        let recovered = ServiceCore::recover_with(
            Arc::new(FsStorage),
            market(),
            JournalLimit::default(),
            wal_config,
            FaultPlan::none(),
        );
        if let Ok(core) = recovered {
            let state = core.engine().snapshot().encode();
            let gap = |run| (0..events.len()).any(|from| replay_without(&events, from, run) == state);
            prop_assert!(
                prefixes.contains(&state) || whole_records.is_some_and(gap),
                "{victim:?} after {damage:?} recovered a state no prefix of the history reaches"
            );
        }
    }
}

/// The prefix rule for the one damage the log cannot see today: the
/// newest segment loses its middle record, and recovery replays the
/// records around it as if they were consecutive.
#[test]
#[ignore = "records carry no sequence number: a whole record deleted from the newest segment goes unnoticed"]
fn deleting_a_whole_record_from_the_newest_segment_is_noticed() {
    let dir = TempDir::new("hostile-gap");
    let wal_config = WalConfig::new(dir.path());
    let events = [
        MarketEvent::AgentJoined {
            id: 1,
            source: ObservationSource::External,
        },
        MarketEvent::EpochTick,
        MarketEvent::AgentLeft { id: 1 },
    ];
    let mut engine = MarketEngine::new(market()).unwrap();
    let mut prefixes = vec![engine.snapshot().encode()];
    {
        let mut wal = Wal::open(wal_config.clone(), FaultPlan::none())
            .unwrap()
            .wal;
        for event in &events {
            wal.append(event).unwrap();
            let _ = engine.apply_now(event.clone());
            prefixes.push(engine.snapshot().encode());
        }
    }
    let [segment] = files(dir.path()).try_into().unwrap();
    let mut bytes = fs::read(&segment).unwrap();
    let starts = record_starts(&bytes);
    bytes.drain(starts[1]..starts[2]);
    fs::write(&segment, &bytes).unwrap();

    let recovered = ServiceCore::recover_with(
        Arc::new(FsStorage),
        market(),
        JournalLimit::default(),
        wal_config,
        FaultPlan::none(),
    );
    if let Ok(core) = recovered {
        assert!(prefixes.contains(&core.engine().snapshot().encode()));
    }
}

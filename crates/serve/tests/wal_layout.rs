//! Guard for the write-ahead log's on-disk layout: the file names and
//! byte sizes in a WAL directory after rotation, a cadence checkpoint and
//! its prune, a reset ahead of the log, a torn-tail repair and a reopen
//! behind a checkpoint (pruned and retained). A change to how the log
//! writes, names, truncates or deletes files shows up here as a changed
//! listing; a deliberate format change re-pins the strings below.

mod common;

use std::fs;
use std::path::Path;

use ref_core::resource::Capacity;
use ref_market::{MarketConfig, MarketEngine, MarketEvent, ObservationSource};
use ref_serve::{FaultPlan, Wal, WalConfig};

use common::TempDir;

/// `name:size` of every file in `dir`, sorted by name.
fn listing(dir: &Path) -> Vec<String> {
    let mut files: Vec<(String, u64)> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, entry.metadata().unwrap().len())
        })
        .collect();
    files.sort();
    files.iter().map(|(n, len)| format!("{n}:{len}")).collect()
}

fn events(n: usize) -> Vec<MarketEvent> {
    (0..n as u64)
        .map(|i| match i % 3 {
            0 => MarketEvent::AgentJoined {
                id: i,
                source: ObservationSource::External,
            },
            1 => MarketEvent::ObservationReported {
                id: i - 1,
                allocation: vec![0.5 + i as f64, 1.0],
                performance: 1.5,
            },
            _ => MarketEvent::EpochTick,
        })
        .collect()
}

/// A decodable snapshot text for checkpoints (an empty market's).
fn snapshot_text() -> String {
    let market = MarketConfig::new(Capacity::new(vec![8.0, 4.0]).unwrap());
    MarketEngine::new(market).unwrap().snapshot().encode()
}

/// Chops `bytes` off the newest segment, as a crash mid-append would.
fn tear_newest_segment(dir: &Path, bytes: u64) {
    let newest = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "wal"))
        .max()
        .unwrap();
    let len = fs::metadata(&newest).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(&newest)
        .unwrap()
        .set_len(len - bytes)
        .unwrap();
}

fn config(dir: &Path) -> WalConfig {
    WalConfig::new(dir).with_segment_max_bytes(96)
}

#[test]
fn rotation_checkpoint_prune_and_reset_leave_the_pinned_listing() {
    let dir = TempDir::new("layout-rotate");
    let text = snapshot_text();
    let mut wal = Wal::open(config(dir.path()), FaultPlan::none())
        .unwrap()
        .wal;
    for e in &events(30) {
        wal.append(e).unwrap();
    }
    assert_eq!(
        listing(dir.path()),
        [
            "segment-0000000000000000.wal:99",
            "segment-0000000000000005.wal:108",
            "segment-000000000000000b.wal:108",
            "segment-0000000000000011.wal:108",
            "segment-0000000000000017.wal:108",
            "segment-000000000000001d.wal:9",
        ]
    );

    // A cadence checkpoint prunes every segment it covers.
    wal.checkpoint(&text).unwrap();
    assert_eq!(
        listing(dir.path()),
        [
            "checkpoint-000000000000001e.ckpt:469",
            "segment-000000000000001d.wal:9",
        ]
    );

    // A reset ahead of the log replaces everything with its checkpoint
    // and a fresh segment; appends continue from there.
    wal.reset_to_checkpoint(100, &text).unwrap();
    assert_eq!(
        listing(dir.path()),
        [
            "checkpoint-0000000000000064.ckpt:470",
            "segment-0000000000000064.wal:0",
        ]
    );
    for e in &events(3) {
        wal.append(e).unwrap();
    }
    assert_eq!(wal.next_seq(), 103);
    assert_eq!(
        listing(dir.path()),
        [
            "checkpoint-0000000000000064.ckpt:470",
            "segment-0000000000000064.wal:54",
        ]
    );
}

#[test]
fn reopening_after_a_torn_tail_leaves_the_pinned_listing() {
    let dir = TempDir::new("layout-torn");
    {
        let mut wal = Wal::open(config(dir.path()), FaultPlan::none())
            .unwrap()
            .wal;
        for e in &events(10) {
            wal.append(e).unwrap();
        }
    }
    tear_newest_segment(dir.path(), 3);
    let mut rec = Wal::open(config(dir.path()), FaultPlan::none()).unwrap();
    assert_eq!((rec.wal.next_seq(), rec.truncated_bytes), (9, 7));
    assert_eq!(
        listing(dir.path()),
        [
            "segment-0000000000000000.wal:99",
            "segment-0000000000000005.wal:63",
        ]
    );
    rec.wal.append(&MarketEvent::EpochTick).unwrap();
    assert_eq!(
        listing(dir.path()),
        [
            "segment-0000000000000000.wal:99",
            "segment-0000000000000005.wal:72",
        ]
    );
}

#[test]
fn reopening_behind_a_checkpoint_leaves_the_pinned_listing() {
    let text = snapshot_text();
    for retain in [false, true] {
        let dir = TempDir::new("layout-behind");
        let config = config(dir.path()).with_retain_history(retain);
        {
            let mut wal = Wal::open(config.clone(), FaultPlan::none()).unwrap().wal;
            for e in &events(12) {
                wal.append(e).unwrap();
            }
            wal.checkpoint(&text).unwrap();
        }
        // The log now ends at seq 11, behind the checkpoint at 12.
        tear_newest_segment(dir.path(), 3);
        let rec = Wal::open(config, FaultPlan::none()).unwrap();
        assert_eq!(rec.wal.next_seq(), 12);
        let want: &[&str] = if retain {
            &[
                "checkpoint-000000000000000c.ckpt:469",
                "segment-0000000000000000.wal:99",
                "segment-0000000000000005.wal:108",
                "segment-000000000000000b.wal:0",
                "segment-000000000000000c.wal:0",
            ]
        } else {
            &[
                "checkpoint-000000000000000c.ckpt:469",
                "segment-000000000000000c.wal:0",
            ]
        };
        assert_eq!(listing(dir.path()), want, "retain_history: {retain}");
    }
}

//! A segmented, checksummed write-ahead log for market events.
//!
//! Durability contract (DESIGN.md §9): whoever holds the shard lock appends
//! every admitted event here *before* applying it to the engine, and a failed append
//! means the event is not applied — on disk, the WAL is always exactly
//! the sequence of applied events (never behind, and self-healed so it
//! is never ahead either, except for a torn tail left by a crash, or the
//! one record of an append that poisoned the log; see [`Wal::append`]).
//! Recovery loads the newest valid checkpoint, replays the WAL tail, and
//! lands bit-identical to what [`crate::core::replay`] would produce
//! from the full event list.
//!
//! On-disk layout, one directory per market:
//!
//! ```text
//! segment-<first_seq:016x>.wal     framed event records
//! checkpoint-<seq:016x>.ckpt       full engine snapshot after `seq` events
//! ```
//!
//! Record framing is length + checksum + payload, little-endian:
//!
//! ```text
//! [ len: u32 ][ crc32(payload): u32 ][ payload: len bytes ]
//! ```
//!
//! where the payload is the event's binary record
//! ([`MarketEvent::write_record`]: a tag byte, varint ids, `f64` bits —
//! a two-resource observation is 27 bytes, a tick one). The in-memory
//! journal and the replication stream's `rec` frames carry the same
//! bytes. Sequence numbers are implicit: a segment's file name carries the
//! sequence of its first record, and records are densely numbered from
//! there. A checkpoint file holds the versioned market snapshot text
//! plus its own CRC; checkpoints are written to a temp file and renamed,
//! so a crash mid-checkpoint leaves the previous one intact. After a
//! successful checkpoint, segments and checkpoints wholly covered by it
//! are deleted (unless [`WalConfig::retain_history`] keeps them).
//!
//! Corruption policy: a short or checksum-failing record in the *last*
//! segment is a torn tail — expected after a crash — and recovery
//! truncates the file back to the last complete record. The same damage
//! in any earlier segment is real corruption and recovery refuses it. A
//! record that passes its checksum but does not decode is never a torn
//! tail (a torn write cannot produce a valid checksum): it is refused
//! with [`io::ErrorKind::InvalidData`] naming its offset, wherever it
//! sits. That is how a log written in the JSON-era format is refused.
//!
//! One process at a time owns a WAL directory; there is no lock file.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ref_market::{MarketEvent, MarketSnapshot};

use crate::fault::FaultPlan;
use crate::storage::{FsStorage, Storage, StorageFile};

/// Per-record framing overhead in bytes (length + checksum).
pub(crate) const RECORD_HEADER_BYTES: usize = 8;

const CHECKPOINT_MAGIC: &str = "refserve-checkpoint v1";

/// Durability knobs for a [`Wal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// Directory holding segments and checkpoints (created on open).
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_max_bytes: u64,
    /// Take a snapshot checkpoint every this many appended events
    /// (0 disables checkpointing).
    pub checkpoint_every: u64,
    /// `fsync` each record before reporting it durable. Off by default:
    /// the tests kill processes, not machines, and the page cache
    /// survives `SIGKILL`.
    pub fsync: bool,
    /// Keep segments and checkpoints that a newer checkpoint covers,
    /// instead of deleting them. Needed when the full event history
    /// must stay readable (e.g. the `journal` op after an in-memory
    /// overflow, or offline audits).
    pub retain_history: bool,
}

impl WalConfig {
    /// A configuration with default durability knobs around `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            segment_max_bytes: 1 << 20,
            checkpoint_every: 4096,
            fsync: false,
            retain_history: false,
        }
    }

    /// Sets the segment rotation size.
    pub fn with_segment_max_bytes(mut self, bytes: u64) -> WalConfig {
        self.segment_max_bytes = bytes;
        self
    }

    /// Sets the checkpoint cadence (0 disables).
    pub fn with_checkpoint_every(mut self, events: u64) -> WalConfig {
        self.checkpoint_every = events;
        self
    }

    /// Enables per-record fsync.
    pub fn with_fsync(mut self, fsync: bool) -> WalConfig {
        self.fsync = fsync;
        self
    }

    /// Keeps covered segments/checkpoints instead of pruning them.
    pub fn with_retain_history(mut self, retain: bool) -> WalConfig {
        self.retain_history = retain;
        self
    }
}

// IEEE CRC32 (reflected, polynomial 0xEDB88320), table-driven. Hand
// rolled because the build is std-only; bit-compatible with zlib's
// crc32 so external tooling can verify records.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes` (zlib-compatible).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Folds `bytes` into a running (pre-inversion) CRC32 register.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// A checkpoint body: hands the snapshot text to its argument in chunks,
/// the same bytes every time it is called.
pub(crate) type Body<'a> = dyn Fn(&mut dyn FnMut(&[u8]) -> io::Result<()>) -> io::Result<()> + 'a;

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("segment-{first_seq:016x}.wal"))
}

fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:016x}.ckpt"))
}

/// Frames whatever `write` appends to `out` as one record,
/// `[len:u32][crc32:u32][payload]` little-endian: reserves the header,
/// lets `write` append the payload, then fills in its length and CRC.
/// Shared with the replication stream, which ships its messages in
/// exactly this envelope.
pub(crate) fn frame_into(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_BYTES]);
    write(out);
    let payload = &out[start + RECORD_HEADER_BYTES..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + RECORD_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
}

/// `payload` framed as one record (see [`frame_into`]).
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    frame_into(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// Maximum framed payload size shared by WAL records and replication
/// frames; larger length prefixes are treated as corruption, not
/// allocation requests — a sane event payload is a few hundred bytes.
pub(crate) const MAX_FRAME_BYTES: u32 = 1 << 26;

/// The verdict of [`check_frame`] on a byte prefix.
pub(crate) enum FrameCheck<'a> {
    /// One whole frame: its checksummed payload and the bytes it occupies.
    Whole(&'a [u8], usize),
    /// Too few bytes for a verdict yet.
    Short,
    /// Bytes that can never become a valid frame.
    Bad(String),
}

/// The one check of a record's envelope — header, [`MAX_FRAME_BYTES`],
/// body length and CRC — for the segment reader and the replication
/// stream's [`crate::repl::decode_frame`] alike.
pub(crate) fn check_frame(buf: &[u8]) -> FrameCheck<'_> {
    if buf.len() < RECORD_HEADER_BYTES {
        return FrameCheck::Short;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return FrameCheck::Bad(format!("frame length {len} exceeds {MAX_FRAME_BYTES}"));
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let body = &buf[RECORD_HEADER_BYTES..];
    if (body.len() as u64) < u64::from(len) {
        return FrameCheck::Short;
    }
    let payload = &body[..len as usize];
    if crc32(payload) != crc {
        return FrameCheck::Bad("frame payload fails its checksum".to_string());
    }
    FrameCheck::Whole(payload, RECORD_HEADER_BYTES + len as usize)
}

fn corrupt(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

/// The event a record's payload holds: exactly one
/// [`MarketEvent::write_record`], with nothing after it.
pub(crate) fn read_event(payload: &[u8]) -> Result<MarketEvent, String> {
    match MarketEvent::read_record(payload) {
        Ok((event, len)) if len == payload.len() => Ok(event),
        Ok((_, len)) => Err(format!("{} bytes follow the event", payload.len() - len)),
        Err(e) => Err(e.to_string()),
    }
}

/// What `parse_records` found in one segment's bytes.
struct SegmentScan {
    events: Vec<MarketEvent>,
    /// Byte offset of the first incomplete or checksum-failing record,
    /// if the tail is torn; `None` when the segment parsed cleanly to EOF.
    torn_at: Option<u64>,
}

/// Parses framed records from `bytes`, stopping at the first torn or
/// checksum-failing record (reported via `torn_at`, judged by the
/// caller). A record that passes its checksum but is not exactly one
/// event record is no torn write: it is returned as `Err((offset, why))`.
fn parse_records(bytes: &[u8]) -> Result<SegmentScan, (usize, String)> {
    let mut events = Vec::new();
    let mut offset = 0usize;
    let torn_at = loop {
        if offset == bytes.len() {
            break None;
        }
        let FrameCheck::Whole(payload, consumed) = check_frame(&bytes[offset..]) else {
            break Some(offset as u64);
        };
        events.push(read_event(payload).map_err(|why| (offset, why))?);
        offset += consumed;
    };
    Ok(SegmentScan { events, torn_at })
}

/// `(first_seq_or_seq, path)` pairs in ascending sequence order.
type SeqPaths = Vec<(u64, PathBuf)>;

fn list_dir(storage: &dyn Storage, dir: &Path) -> io::Result<(SeqPaths, SeqPaths)> {
    let mut segments = Vec::new();
    let mut checkpoints = Vec::new();
    for path in storage.list_dir(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(seq) = name
            .strip_prefix("segment-")
            .and_then(|r| r.strip_suffix(".wal"))
            .and_then(|r| u64::from_str_radix(r, 16).ok())
        {
            segments.push((seq, path));
        } else if let Some(seq) = name
            .strip_prefix("checkpoint-")
            .and_then(|r| r.strip_suffix(".ckpt"))
            .and_then(|r| u64::from_str_radix(r, 16).ok())
        {
            checkpoints.push((seq, path));
        }
        // Anything else (including leftover .tmp files) is ignored.
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    checkpoints.sort_unstable_by_key(|(seq, _)| *seq);
    Ok((segments, checkpoints))
}

/// One segment of a listing, read and parsed.
struct Scanned<'a> {
    first: u64,
    path: &'a Path,
    /// The file's size in bytes.
    len: u64,
    scan: SegmentScan,
    is_last: bool,
}

impl Scanned<'_> {
    /// Checks that this segment starts at `cursor` and that only the last
    /// segment ends torn; returns the sequence the next segment must
    /// start at.
    fn follows(&self, cursor: u64) -> io::Result<u64> {
        if self.first != cursor {
            return Err(corrupt(format!(
                "sequence gap: segment {:?} starts at {}, expected {cursor}",
                self.path, self.first
            )));
        }
        match self.scan.torn_at {
            Some(at) if !self.is_last => Err(corrupt(format!(
                "corrupt record at byte {at} of non-final segment {:?}",
                self.path
            ))),
            _ => Ok(self.first + self.scan.events.len() as u64),
        }
    }
}

/// The one pass over a listing's segments that recovery,
/// [`read_events_with`] and [`scrub_with`] share: each segment read and
/// parsed in order, one at a time.
fn scan_segments<'a>(
    storage: &'a dyn Storage,
    segments: &'a [(u64, PathBuf)],
) -> impl Iterator<Item = io::Result<Scanned<'a>>> + 'a {
    segments.iter().enumerate().map(move |(i, (first, path))| {
        let bytes = storage.read(path)?;
        let scan = parse_records(&bytes).map_err(|(at, why)| {
            corrupt(format!(
                "record at byte {at} of segment {path:?} passes its checksum but is not an \
                 event record ({why}); a log written before the binary record format?"
            ))
        })?;
        Ok(Scanned {
            first: *first,
            path,
            len: bytes.len() as u64,
            scan,
            is_last: i + 1 == segments.len(),
        })
    })
}

/// Creates the segment whose first record will be `seq`: the one place a
/// segment file comes into being (rotation, a reset, and recovery's fresh
/// segment).
fn create_segment(
    storage: &dyn Storage,
    dir: &Path,
    seq: u64,
) -> io::Result<(PathBuf, Box<dyn StorageFile>)> {
    let path = segment_path(dir, seq);
    let file = storage.open_append(&path, true)?;
    Ok((path, file))
}

/// A checkpoint file's sequence, its body — the snapshot text, which
/// passed the file's checksum — and the snapshot the body decodes to.
type Checkpoint = (u64, String, MarketSnapshot);

fn read_checkpoint_file(storage: &dyn Storage, path: &Path) -> io::Result<Checkpoint> {
    let mut text = String::from_utf8(storage.read(path)?)
        .map_err(|_| corrupt("checkpoint is not valid UTF-8"))?;
    let mut rest = text.as_str();
    let mut take_line = |what: &str| -> io::Result<&str> {
        let (line, tail) = rest
            .split_once('\n')
            .ok_or_else(|| corrupt(format!("checkpoint missing {what} line")))?;
        rest = tail;
        Ok(line)
    };
    let magic = take_line("magic")?;
    if magic != CHECKPOINT_MAGIC {
        return Err(corrupt(format!("bad checkpoint magic {magic:?}")));
    }
    let seq = take_line("seq")?
        .strip_prefix("seq ")
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| corrupt("bad checkpoint seq line"))?;
    let crc = take_line("crc")?
        .strip_prefix("crc ")
        .and_then(|s| u32::from_str_radix(s, 16).ok())
        .ok_or_else(|| corrupt("bad checkpoint crc line"))?;
    if crc32(rest.as_bytes()) != crc {
        return Err(corrupt("checkpoint body fails its checksum"));
    }
    let snapshot =
        MarketSnapshot::decode(rest).map_err(|e| corrupt(format!("checkpoint snapshot: {e}")))?;
    text.drain(..text.len() - rest.len());
    Ok((seq, text, snapshot))
}

/// The newest of `checkpoints` that reads back whole and names its own
/// sequence, as [`read_checkpoint_file`] gives it; damaged ones are
/// skipped.
fn newest_valid(storage: &dyn Storage, checkpoints: &SeqPaths) -> Option<Checkpoint> {
    checkpoints.iter().rev().find_map(|(seq, path)| {
        read_checkpoint_file(storage, path)
            .ok()
            .filter(|(file_seq, _, _)| file_seq == seq)
    })
}

/// The outcome of opening (and, if needed, repairing) a WAL directory.
#[derive(Debug)]
pub struct Recovery {
    /// The opened log, positioned for appends.
    pub wal: Wal,
    /// The newest valid checkpoint, if any: the engine state after the
    /// first `seq` events.
    pub checkpoint: Option<(u64, MarketSnapshot)>,
    /// Events at and after the checkpoint sequence, to be replayed on
    /// top of it (or from scratch when there is no checkpoint).
    pub tail: Vec<MarketEvent>,
    /// Bytes of torn tail truncated from the last segment.
    pub truncated_bytes: u64,
}

/// A write-ahead log open for appending.
#[derive(Debug)]
pub struct Wal {
    config: WalConfig,
    /// [`FaultPlan::fail_append_at`]: the one fault injected at this
    /// layer (disk faults are injected below it, through [`Storage`]).
    fail_append_at: Option<u64>,
    storage: Arc<dyn Storage>,
    file: Box<dyn StorageFile>,
    /// On-disk segments in ascending first-sequence order; the last one
    /// is the open segment `file` appends to.
    segments: Vec<(u64, PathBuf)>,
    /// Size in bytes of the open segment.
    segment_bytes: u64,
    /// Records already in the open segment.
    segment_records: u64,
    next_seq: u64,
    poisoned: bool,
    /// Total bytes across every retained segment (disk-usage gauge).
    total_bytes: u64,
    /// Size of the newest checkpoint file in bytes (0 when none).
    checkpoint_bytes: u64,
    /// The record being appended, framed: reused, so an append that does
    /// not rotate allocates nothing.
    buf: Vec<u8>,
}

impl Wal {
    /// Opens (creating or recovering) the WAL directory in `config` and
    /// returns the log plus everything needed to rebuild engine state.
    ///
    /// An empty or missing directory yields a fresh log at sequence 0.
    /// A directory with prior state is recovered: newest valid
    /// checkpoint, tail replayed, torn final record truncated away.
    ///
    /// # Errors
    ///
    /// I/O failures, and [`io::ErrorKind::InvalidData`] for corruption
    /// that recovery must not paper over (a bad record in a non-final
    /// segment, or a sequence gap).
    pub fn open(config: WalConfig, faults: FaultPlan) -> io::Result<Recovery> {
        Wal::open_with(Arc::new(FsStorage), config, faults)
    }

    /// [`Wal::open`] against an explicit [`Storage`] implementation —
    /// the deterministic simulator's entry point (an in-memory
    /// `SimDisk`); `open` itself is this with [`FsStorage`].
    ///
    /// # Errors
    ///
    /// Exactly as [`Wal::open`].
    pub(crate) fn open_with(
        storage: Arc<dyn Storage>,
        config: WalConfig,
        faults: FaultPlan,
    ) -> io::Result<Recovery> {
        storage.create_dir_all(&config.dir)?;
        let (disk_segments, disk_checkpoints) = list_dir(storage.as_ref(), &config.dir)?;

        // Newest structurally-valid checkpoint wins; damaged ones are
        // skipped (a crash mid-rename can leave none — that is fine, the
        // segments still hold everything).
        let checkpoint = newest_valid(storage.as_ref(), &disk_checkpoints)
            .map(|(seq, _, snapshot)| (seq, snapshot));
        let ckpt_seq = checkpoint.as_ref().map_or(0, |(seq, _)| *seq);

        // Replay starts in the newest segment that begins at or before
        // the checkpoint; earlier segments are fully covered by it.
        let start = match disk_segments
            .iter()
            .rposition(|(first, _)| *first <= ckpt_seq)
        {
            Some(i) => i,
            None if disk_segments.is_empty() => 0,
            None => {
                return Err(corrupt(format!(
                    "no segment reaches back to checkpoint seq {ckpt_seq}: history is missing"
                )))
            }
        };

        let mut tail = Vec::new();
        let mut truncated_bytes = 0u64;
        let mut cursor = disk_segments
            .get(start)
            .map_or(ckpt_seq, |(first, _)| *first);
        let mut kept_segments: Vec<(u64, PathBuf)> = disk_segments[..start].to_vec();
        let (mut last_bytes, mut last_records) = (0u64, 0u64);
        for segment in scan_segments(storage.as_ref(), &disk_segments[start..]) {
            let segment = segment?;
            cursor = segment.follows(cursor)?;
            let torn_at = segment.scan.torn_at;
            if let Some(at) = torn_at {
                // Torn tail: truncate the file back to the last complete
                // record so future appends extend a clean log.
                truncated_bytes = segment.len - at;
                storage.truncate(segment.path, at)?;
            }
            last_bytes = torn_at.unwrap_or(segment.len);
            last_records = segment.scan.events.len() as u64;
            kept_segments.push((segment.first, segment.path.to_path_buf()));
            let covered = ckpt_seq.saturating_sub(segment.first) as usize;
            tail.extend(segment.scan.events.into_iter().skip(covered));
        }

        // A deliberately-truncated tail can land the log *behind* the
        // checkpoint; the checkpoint is authoritative, so resume from it
        // in a fresh segment. The stale segments can never replay up to
        // the checkpoint again (the record between them and the fresh
        // segment exists only inside the checkpoint), so they are
        // dropped to keep the on-disk log gap-free — unless history is
        // retained, in which case they stay behind for forensics.
        let next_seq = cursor.max(ckpt_seq);
        let fresh_segment = disk_segments.is_empty() || cursor < ckpt_seq;
        if cursor < ckpt_seq && !config.retain_history {
            for (_, path) in kept_segments.drain(..) {
                let _ = storage.remove_file(&path);
            }
        }
        let (file, segment_bytes, segment_records) = if fresh_segment {
            let (path, file) = create_segment(storage.as_ref(), &config.dir, next_seq)?;
            kept_segments.push((next_seq, path));
            (file, 0, 0)
        } else {
            let path = kept_segments.last().expect("non-empty").1.clone();
            let file = storage.open_append(&path, false)?;
            (file, last_bytes, last_records)
        };

        let mut total_bytes = 0u64;
        for (_, path) in &kept_segments {
            total_bytes += storage.len(path).unwrap_or(0);
        }
        let checkpoint_bytes = checkpoint
            .as_ref()
            .map(|(seq, _)| checkpoint_path(&config.dir, *seq))
            .and_then(|path| storage.len(&path).ok())
            .unwrap_or(0);

        Ok(Recovery {
            wal: Wal {
                config,
                fail_append_at: faults.fail_append_at,
                storage,
                file,
                segments: kept_segments,
                segment_bytes,
                segment_records,
                next_seq,
                poisoned: false,
                total_bytes,
                checkpoint_bytes,
                buf: Vec::new(),
            },
            checkpoint,
            tail,
            truncated_bytes,
        })
    }

    /// The sequence number the next appended record will get (equals
    /// the number of events ever logged).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// First sequence still present on disk (0 unless pruned).
    pub fn first_retained_seq(&self) -> u64 {
        self.segments.first().map_or(self.next_seq, |(s, _)| *s)
    }

    /// Whether a failed write poisoned the log (further appends refuse).
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// The WAL directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// The storage this log reads and writes through.
    pub(crate) fn storage(&self) -> Arc<dyn Storage> {
        Arc::clone(&self.storage)
    }

    /// The configured checkpoint cadence (0 = never).
    pub(crate) fn checkpoint_every(&self) -> u64 {
        self.config.checkpoint_every
    }

    /// Number of retained segments on disk (including the open one).
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total bytes across every retained segment.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Size in bytes of the newest checkpoint file (0 when none).
    pub(crate) fn checkpoint_bytes(&self) -> u64 {
        self.checkpoint_bytes
    }

    /// Replaces the entire log with a checkpoint at `seq` holding
    /// `snapshot_text`, discarding every existing segment and checkpoint
    /// and opening a fresh segment at `seq`.
    ///
    /// This is the standby bootstrap path: when a primary's stream opens
    /// with a full snapshot (the standby's history is too far behind the
    /// primary's retained log), the standby's local WAL must restart
    /// from that snapshot so its own durable chain matches what it now
    /// serves. The checkpoint is written before old state is deleted, so
    /// a crash mid-reset recovers to the new snapshot, never to nothing.
    ///
    /// # Errors
    ///
    /// I/O failures writing the checkpoint or opening the fresh segment.
    pub fn reset_to_checkpoint(&mut self, seq: u64, snapshot_text: &str) -> io::Result<()> {
        self.checkpoint_bytes = self.write_checkpoint(seq, &|out| out(snapshot_text.as_bytes()))?;
        // The new checkpoint is in place (and synced, with `fsync` on);
        // now drop the stale history.
        let (segments, checkpoints) = list_dir(self.storage.as_ref(), &self.config.dir)?;
        for (ckpt_seq, old) in checkpoints {
            if ckpt_seq != seq {
                let _ = self.storage.remove_file(&old);
            }
        }
        for (_, old) in segments {
            let _ = self.storage.remove_file(&old);
        }
        self.segments.clear();
        self.total_bytes = 0;
        self.start_segment(seq)?;
        self.next_seq = seq;
        self.poisoned = false;
        Ok(())
    }

    /// Appends one event durably; the event may be applied only after
    /// this returns `Ok`. Returns the record's sequence number.
    ///
    /// # Errors
    ///
    /// On any write failure (real or injected) the log self-heals by
    /// truncating back to the previous record boundary, so an event
    /// whose append failed and left the log unpoisoned is absent from
    /// it. If even the truncation fails the log is poisoned and refuses
    /// appends, and the outcome of the append that poisoned it is
    /// unknown: every byte of its record may have landed, and recovery
    /// then replays it. No marker can rule that out — writing one is one
    /// more write that can fail the same way — so the caller reports it
    /// (DESIGN.md §9).
    pub fn append(&mut self, event: &MarketEvent) -> io::Result<u64> {
        self.append_with(|out| event.write_record(out))
    }

    /// [`Wal::append`] of an event already encoded as its record
    /// ([`MarketEvent::write_record`]'s bytes).
    ///
    /// # Errors
    ///
    /// Exactly as [`Wal::append`].
    pub(crate) fn append_record(&mut self, record: &[u8]) -> io::Result<u64> {
        self.append_with(|out| out.extend_from_slice(record))
    }

    /// The one append: `write` puts the record's payload into the framed
    /// buffer.
    fn append_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other("wal poisoned by an earlier failed write"));
        }
        let seq = self.next_seq;
        if self.fail_append_at == Some(seq) {
            // Transient by design: the fault fires once, so a retry of
            // the same sequence (the caller never advanced) succeeds.
            self.fail_append_at = None;
            return Err(io::Error::other(format!(
                "injected append failure at seq {seq}"
            )));
        }
        if self.segment_records > 0 && self.segment_bytes >= self.config.segment_max_bytes {
            self.rotate()?;
        }
        self.buf.clear();
        frame_into(&mut self.buf, write);
        let outcome = self.file.write_all(&self.buf).and_then(|()| {
            if self.config.fsync {
                self.file.sync_data()?;
            }
            Ok(())
        });
        if let Err(e) = outcome {
            // Self-heal: drop whatever partial bytes landed so the log
            // never runs ahead of the applied state.
            if self.file.set_len(self.segment_bytes).is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        let len = self.buf.len() as u64;
        self.segment_bytes += len;
        self.total_bytes += len;
        self.segment_records += 1;
        self.next_seq += 1;
        Ok(seq)
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.start_segment(self.next_seq)
    }

    /// Switches appends to a fresh segment starting at `seq`.
    fn start_segment(&mut self, seq: u64) -> io::Result<()> {
        let (path, file) = create_segment(self.storage.as_ref(), &self.config.dir, seq)?;
        self.file = file;
        self.segments.push((seq, path));
        self.segment_bytes = 0;
        self.segment_records = 0;
        Ok(())
    }

    /// Writes a checkpoint of `snapshot_text` (the engine state after
    /// all `next_seq` logged events), then prunes segments and
    /// checkpoints it covers (unless history is retained). Written via
    /// temp file + rename, so a crash leaves the previous checkpoint;
    /// with `fsync` on, the new one is durable before anything it covers
    /// is deleted.
    ///
    /// # Errors
    ///
    /// I/O failures; the log itself is unaffected by a failed
    /// checkpoint (appends continue, recovery just replays more tail).
    pub fn checkpoint(&mut self, snapshot_text: &str) -> io::Result<()> {
        self.checkpoint_with(&|out| out(snapshot_text.as_bytes()))
    }

    /// [`Wal::checkpoint`] with the snapshot text streamed by `body`,
    /// which is called twice: once for the header's checksum, once into
    /// the file. Errors `body` returns are returned.
    pub(crate) fn checkpoint_with(&mut self, body: &Body<'_>) -> io::Result<()> {
        let seq = self.next_seq;
        self.checkpoint_bytes = self.write_checkpoint(seq, body)?;
        if !self.config.retain_history {
            self.prune(seq)?;
        }
        Ok(())
    }

    /// The one checkpoint-file writer: `magic`, `seq`, the CRC of the
    /// body (from a first pass of `body`), then the body, into a temp
    /// file that is synced (with `fsync` on) and renamed into place.
    /// Returns the file's size.
    fn write_checkpoint(&self, seq: u64, body: &Body<'_>) -> io::Result<u64> {
        let (mut crc, mut len) = (!0, 0);
        body(&mut |chunk| {
            crc = crc32_update(crc, chunk);
            len += chunk.len() as u64;
            Ok(())
        })?;
        let header = format!("{CHECKPOINT_MAGIC}\nseq {seq}\ncrc {:08x}\n", !crc);
        let path = checkpoint_path(&self.config.dir, seq);
        let tmp = path.with_extension("tmp");
        // Appends would land after whatever a crash left in the temp file.
        let _ = self.storage.remove_file(&tmp);
        let mut file = self.storage.open_append(&tmp, true)?;
        file.write_all(header.as_bytes())?;
        body(&mut |chunk| file.write_all(chunk))?;
        if self.config.fsync {
            file.sync_data()?;
        }
        drop(file);
        self.storage.rename(&tmp, &path)?;
        Ok(header.len() as u64 + len)
    }

    /// Deletes checkpoints older than `seq` and segments wholly below
    /// `seq` (a segment is deletable when the *next* segment starts at
    /// or before `seq`, so the segment containing `seq` survives).
    fn prune(&mut self, seq: u64) -> io::Result<()> {
        let (_, checkpoints) = list_dir(self.storage.as_ref(), &self.config.dir)?;
        for (ckpt_seq, path) in checkpoints {
            if ckpt_seq < seq {
                let _ = self.storage.remove_file(&path);
            }
        }
        while self.segments.len() > 1 && self.segments[1].0 <= seq {
            let (_, path) = self.segments.remove(0);
            let removed = self.storage.len(&path).unwrap_or(0);
            let _ = self.storage.remove_file(&path);
            self.total_bytes = self.total_bytes.saturating_sub(removed);
        }
        Ok(())
    }

    /// Reads every event still on disk, in order, together
    /// with the sequence number of the first one. Tolerates a torn tail
    /// (stops there) without modifying any file — safe to call while
    /// the log is open for appends, since appends are serialized by the
    /// shard lock and records become visible only whole.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`io::ErrorKind::InvalidData`] for interior
    /// corruption or sequence gaps.
    pub(crate) fn read_events(&self) -> io::Result<(u64, Vec<MarketEvent>)> {
        read_events_with(self.storage.as_ref(), &self.config.dir)
    }

    /// Verifies every CRC in every retained segment and checkpoint (see
    /// [`scrub`]) through this log's own storage handle.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures *reading* the directory; verification
    /// findings are reported in the [`ScrubReport`], not as errors.
    pub(crate) fn scrub(&self) -> io::Result<ScrubReport> {
        scrub_with(self.storage.as_ref(), &self.config.dir)
    }
}

/// Reads all events from a WAL directory (see
/// `Wal::read_events`); usable offline, e.g. for audits or the chaos
/// harness's independent verification.
///
/// # Errors
///
/// I/O failures, or [`io::ErrorKind::InvalidData`] for interior
/// corruption, a checksum-valid record that does not decode, or
/// sequence gaps.
pub fn read_events_with(storage: &dyn Storage, dir: &Path) -> io::Result<(u64, Vec<MarketEvent>)> {
    let (segments, _) = list_dir(storage, dir)?;
    let first_seq = segments.first().map_or(0, |(first, _)| *first);
    let (mut cursor, mut events) = (first_seq, Vec::new());
    for segment in scan_segments(storage, &segments) {
        let segment = segment?;
        cursor = segment.follows(cursor)?;
        events.extend(segment.scan.events);
    }
    Ok((first_seq, events))
}

/// What a WAL scrub found (see [`scrub`]). Clean means `errors` is
/// empty: every record in every segment passed its CRC, and every
/// checkpoint's body matched its own checksum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Segments scanned.
    pub segments: u64,
    /// Framed records whose CRC verified.
    pub records: u64,
    /// Checkpoint files scanned.
    pub checkpoints: u64,
    /// Human-readable findings, one per damaged file. Empty when clean.
    pub errors: Vec<String>,
}

impl ScrubReport {
    /// Whether the scrub found no damage at all.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Walks *all* retained segments and checkpoints in `dir`, verifying
/// every record CRC and every checkpoint checksum — not just the tail
/// that [`Wal::open`] validates. Read-only: nothing is repaired or
/// truncated, so it is safe on a live directory (the shard lock's holder
/// is the only writer, and it is the one calling). Damage is reported in the
/// [`ScrubReport`], one finding per file.
///
/// # Errors
///
/// Propagates directory-listing and read failures; a missing directory
/// yields an empty (clean) report. A record that passes its checksum but
/// does not decode is refused with [`io::ErrorKind::InvalidData`], as
/// recovery refuses it: a log in another format is not damage to count.
pub fn scrub(dir: &Path) -> io::Result<ScrubReport> {
    scrub_with(&FsStorage, dir)
}

/// [`scrub`] against an explicit [`Storage`] implementation.
///
/// # Errors
///
/// Exactly as [`scrub`].
pub(crate) fn scrub_with(storage: &dyn Storage, dir: &Path) -> io::Result<ScrubReport> {
    let mut report = ScrubReport::default();
    if !storage.exists(dir) {
        return Ok(report);
    }
    let (segments, checkpoints) = list_dir(storage, dir)?;
    for segment in scan_segments(storage, &segments) {
        let Scanned {
            first,
            path,
            scan,
            is_last,
            ..
        } = segment?;
        report.segments += 1;
        report.records += scan.events.len() as u64;
        if let Some(at) = scan.torn_at {
            // An open log legitimately ends mid-record only if the
            // process died this instant; by the time a scrub runs,
            // recovery has already truncated any torn tail, so *any*
            // unparseable bytes — even in the final segment — are
            // reported.
            let seq = first + scan.events.len() as u64;
            report.errors.push(format!(
                "segment {path:?}: invalid record at byte {at} (seq {seq}{})",
                if is_last { ", torn tail" } else { "" }
            ));
        }
    }
    for (seq, path) in &checkpoints {
        report.checkpoints += 1;
        match read_checkpoint_file(storage, path) {
            Ok((file_seq, _, _)) if file_seq == *seq => {}
            Ok((file_seq, _, _)) => report.errors.push(format!(
                "checkpoint {path:?}: name says seq {seq} but file says {file_seq}"
            )),
            Err(e) => report.errors.push(format!("checkpoint {path:?}: {e}")),
        }
    }
    Ok(report)
}

/// The newest structurally-valid checkpoint in `dir`, if any, as
/// `(seq, snapshot_text)`: the file's checksum-verified body, byte for
/// byte. Damaged checkpoints — a body that fails its checksum or does
/// not decode — are skipped, exactly as [`Wal::open`] does. Safe to call
/// while the directory's owning server is live (checkpoints are written
/// atomically via rename), which is how a primary bootstraps a standby
/// that is behind the retained log.
///
/// # Errors
///
/// Propagates directory-listing failures; a missing directory yields
/// `Ok(None)`.
pub fn newest_checkpoint_with(
    storage: &dyn Storage,
    dir: &Path,
) -> io::Result<Option<(u64, String)>> {
    if !storage.exists(dir) {
        return Ok(None);
    }
    let (_, checkpoints) = list_dir(storage, dir)?;
    Ok(newest_valid(storage, &checkpoints).map(|(seq, text, _)| (seq, text)))
}

/// Whether `dir` already holds WAL state (any non-empty segment or any
/// checkpoint). [`crate::Server::start`] refuses such a directory so a
/// fresh boot cannot silently shadow recoverable history.
///
/// # Errors
///
/// Propagates directory-listing failures.
pub fn dir_has_state_with(storage: &dyn Storage, dir: &Path) -> io::Result<bool> {
    if !storage.exists(dir) {
        return Ok(false);
    }
    let (segments, checkpoints) = list_dir(storage, dir)?;
    if !checkpoints.is_empty() {
        return Ok(true);
    }
    for (_, path) in &segments {
        if storage.len(path)? > 0 {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ref_market::ObservationSource;
    use std::fs::{self, OpenOptions};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Self-cleaning unique temp directory (no tempfile crate).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("ref-wal-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn join(id: u64) -> MarketEvent {
        MarketEvent::AgentJoined {
            id,
            source: ObservationSource::External,
        }
    }

    fn observe(id: u64, a0: f64) -> MarketEvent {
        MarketEvent::ObservationReported {
            id,
            allocation: vec![a0, 1.0],
            performance: 1.5,
        }
    }

    fn events(n: usize) -> Vec<MarketEvent> {
        (0..n)
            .map(|i| match i % 3 {
                0 => join(i as u64),
                1 => observe((i as u64).saturating_sub(1), 0.5 + i as f64),
                _ => MarketEvent::EpochTick,
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // zlib's crc32("123456789") — the standard check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_recover_round_trips_every_event() {
        let dir = TempDir::new("roundtrip");
        let all = events(17);
        {
            let mut wal = Wal::open(WalConfig::new(dir.path()), FaultPlan::none())
                .unwrap()
                .wal;
            for (i, e) in all.iter().enumerate() {
                assert_eq!(wal.append(e).unwrap(), i as u64);
            }
        }
        let rec = Wal::open(WalConfig::new(dir.path()), FaultPlan::none()).unwrap();
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.tail, all);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.wal.next_seq(), 17);
    }

    #[test]
    fn rotation_splits_segments_and_reads_stay_contiguous() {
        let dir = TempDir::new("rotate");
        let all = events(40);
        let config = WalConfig::new(dir.path()).with_segment_max_bytes(128);
        {
            let mut wal = Wal::open(config.clone(), FaultPlan::none()).unwrap().wal;
            for e in &all {
                wal.append(e).unwrap();
            }
            assert!(wal.segments.len() > 2, "tiny segments must rotate");
        }
        let (first, read) = read_events_with(&FsStorage, dir.path()).unwrap();
        assert_eq!(first, 0);
        assert_eq!(read, all);
        // Appending after recovery continues the same numbering.
        let mut rec = Wal::open(config, FaultPlan::none()).unwrap();
        assert_eq!(rec.wal.next_seq(), 40);
        assert_eq!(rec.wal.append(&MarketEvent::EpochTick).unwrap(), 40);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_complete_record() {
        let dir = TempDir::new("torn");
        let all = events(9);
        {
            let mut wal = Wal::open(WalConfig::new(dir.path()), FaultPlan::none())
                .unwrap()
                .wal;
            for e in &all {
                wal.append(e).unwrap();
            }
        }
        // Chop 3 bytes off the single segment: the final record is torn.
        let path = segment_path(dir.path(), 0);
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let rec = Wal::open(WalConfig::new(dir.path()), FaultPlan::none()).unwrap();
        assert_eq!(rec.tail, all[..8].to_vec());
        assert_eq!(rec.wal.next_seq(), 8);
        assert!(rec.truncated_bytes > 0);
        // The file itself was repaired: a second recovery is clean.
        let rec2 = Wal::open(WalConfig::new(dir.path()), FaultPlan::none()).unwrap();
        assert_eq!(rec2.truncated_bytes, 0);
        assert_eq!(rec2.tail, all[..8].to_vec());
    }

    #[test]
    fn a_failing_middle_record_of_the_last_segment_drops_every_record_after_it() {
        // Recovery cannot tell a bit flipped in a middle record of the last
        // segment from a torn tail: it cuts the log at that record, and
        // the intact, acknowledged records behind it go with it.
        let dir = TempDir::new("middle");
        let all = events(9);
        {
            let mut wal = Wal::open(WalConfig::new(dir.path()), FaultPlan::none())
                .unwrap()
                .wal;
            for e in &all {
                wal.append(e).unwrap();
            }
        }
        let framed: Vec<usize> = all
            .iter()
            .map(|e| {
                let mut record = Vec::new();
                e.write_record(&mut record);
                frame(&record).len()
            })
            .collect();
        let at: usize = framed[..4].iter().sum();
        let path = segment_path(dir.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        assert_eq!(bytes.len(), framed.iter().sum::<usize>());
        // One bit of the fifth record's payload.
        bytes[at + RECORD_HEADER_BYTES] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let rec = Wal::open(WalConfig::new(dir.path()), FaultPlan::none()).unwrap();
        assert_eq!(rec.tail, all[..4].to_vec());
        assert_eq!(rec.wal.next_seq(), 4);
        // The failing record and the four intact ones after it: 98 bytes.
        assert_eq!(rec.truncated_bytes, (bytes.len() - at) as u64);
        assert_eq!(rec.truncated_bytes, 98);
        assert_eq!(fs::metadata(&path).unwrap().len(), at as u64);
    }

    #[test]
    fn interior_corruption_is_refused_not_repaired() {
        let dir = TempDir::new("interior");
        let config = WalConfig::new(dir.path()).with_segment_max_bytes(64);
        {
            let mut wal = Wal::open(config.clone(), FaultPlan::none()).unwrap().wal;
            for e in events(30) {
                wal.append(&e).unwrap();
            }
            assert!(wal.segments.len() >= 3);
        }
        // Flip a payload byte in the FIRST segment: not a torn tail.
        let path = segment_path(dir.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        let err = Wal::open(config, FaultPlan::none()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_checksum_valid_record_that_does_not_decode_is_refused_not_truncated() {
        use crate::protocol::event_to_value;

        let all = events(3);
        let json = |e: &MarketEvent| frame(event_to_value(e).encode().as_bytes());
        let binary = |e: &MarketEvent| {
            let mut record = Vec::new();
            e.write_record(&mut record);
            frame(&record)
        };
        // A JSON-era log, and one JSON record after a binary one (a join,
        // 10 bytes framed): each the only, so the final, segment — where
        // a torn tail would be cut off.
        let json_era: Vec<u8> = all.iter().flat_map(json).collect();
        let mixed = [binary(&all[0]), json(&all[1]), binary(&all[2])].concat();
        for (bytes, at) in [(json_era, 0), (mixed, 10)] {
            let dir = TempDir::new("undecodable");
            fs::create_dir_all(dir.path()).unwrap();
            let path = segment_path(dir.path(), 0);
            fs::write(&path, &bytes).unwrap();
            let want = format!("record at byte {at} of segment");
            let err = Wal::open(WalConfig::new(dir.path()), FaultPlan::none()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(&want), "{err}");
            let err = read_events_with(&FsStorage, dir.path()).unwrap_err();
            assert!(err.to_string().contains(&want), "{err}");
            let err = scrub(dir.path()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(fs::read(&path).unwrap(), bytes, "nothing is truncated");
        }
    }

    #[test]
    fn injected_append_failure_leaves_no_bytes() {
        let dir = TempDir::new("failinj");
        let faults = FaultPlan {
            fail_append_at: Some(1),
            ..FaultPlan::default()
        };
        let mut wal = Wal::open(WalConfig::new(dir.path()), faults).unwrap().wal;
        wal.append(&join(1)).unwrap();
        let before = fs::metadata(segment_path(dir.path(), 0)).unwrap().len();
        assert!(wal.append(&join(2)).is_err());
        let after = fs::metadata(segment_path(dir.path(), 0)).unwrap().len();
        assert_eq!(before, after, "failed append must not leave bytes");
        assert!(!wal.poisoned());
        // seq 1 is retried successfully (the fault fires once by seq).
        assert_eq!(wal.append(&join(2)).unwrap(), 1);
    }

    /// What [`Recording`] saw, and the faults armed in it.
    #[derive(Debug, Default)]
    struct Disk {
        /// Every call as `(op, file name)`, failed ones included.
        ops: Vec<(&'static str, String)>,
        /// Each fires once, at the next matching call.
        armed: Vec<Arm>,
    }

    /// A fault armed in [`Recording`]: the next `op` on a file whose name
    /// ends with `suffix` fails. A `write` first lands `keep` bytes; if
    /// any land, the `set_len` heal that follows fails once too, as
    /// `SimDisk`'s torn write does.
    #[derive(Debug, Clone, Copy)]
    struct Arm {
        op: &'static str,
        suffix: &'static str,
        keep: usize,
    }

    type Shared = Arc<std::sync::Mutex<Disk>>;

    /// The real filesystem, logging each call as `(op, file name)` and
    /// failing the ones armed. `sync` is logged but not passed down:
    /// nothing here outlives the process, and a real `fdatasync` per
    /// record would make the fault sweep below take seconds.
    #[derive(Debug, Default, Clone)]
    struct Recording(Shared);

    impl Recording {
        fn arm(&self, op: &'static str, suffix: &'static str, keep: usize) {
            let arm = Arm { op, suffix, keep };
            self.0.lock().unwrap().armed.push(arm);
        }

        /// The calls logged since the last `take_ops`.
        fn take_ops(&self) -> Vec<(&'static str, String)> {
            std::mem::take(&mut self.0.lock().unwrap().ops)
        }

        fn fired(&self) -> bool {
            self.0.lock().unwrap().armed.is_empty()
        }
    }

    /// Logs `op` on `path`; the armed fault it trips, if any.
    fn call(disk: &Shared, op: &'static str, path: &Path) -> Option<Arm> {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let mut disk = disk.lock().unwrap();
        let hit = (disk.armed.iter()).position(|a| a.op == op && name.ends_with(a.suffix));
        disk.ops.push((op, name));
        hit.map(|i| disk.armed.remove(i))
    }

    fn injected(op: &str) -> io::Error {
        io::Error::other(format!("injected {op} failure"))
    }

    #[derive(Debug)]
    struct RecordingFile {
        inner: Box<dyn StorageFile>,
        path: PathBuf,
        disk: Shared,
    }

    impl StorageFile for RecordingFile {
        fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
            let Some(arm) = call(&self.disk, "write", &self.path) else {
                return self.inner.write_all(bytes);
            };
            if arm.keep > 0 {
                self.inner.write_all(&bytes[..arm.keep.min(bytes.len())])?;
                let heal = Arm {
                    op: "set_len",
                    keep: 0,
                    ..arm
                };
                self.disk.lock().unwrap().armed.push(heal);
            }
            Err(injected("write"))
        }

        fn sync_data(&mut self) -> io::Result<()> {
            match call(&self.disk, "sync", &self.path) {
                Some(_) => Err(injected("sync")),
                None => Ok(()),
            }
        }

        fn set_len(&mut self, len: u64) -> io::Result<()> {
            match call(&self.disk, "set_len", &self.path) {
                Some(_) => Err(injected("set_len")),
                None => self.inner.set_len(len),
            }
        }
    }

    impl Storage for Recording {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            FsStorage.create_dir_all(dir)
        }

        fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            FsStorage.list_dir(dir)
        }

        fn exists(&self, path: &Path) -> bool {
            FsStorage.exists(path)
        }

        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            FsStorage.read(path)
        }

        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            match call(&self.0, "write", path) {
                Some(_) => Err(injected("write")),
                None => FsStorage.write(path, bytes),
            }
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            match call(&self.0, "rename", from) {
                Some(_) => Err(injected("rename")),
                None => FsStorage.rename(from, to),
            }
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            match call(&self.0, "remove", path) {
                Some(_) => Err(injected("remove")),
                None => FsStorage.remove_file(path),
            }
        }

        fn len(&self, path: &Path) -> io::Result<u64> {
            FsStorage.len(path)
        }

        fn open_append(&self, path: &Path, create: bool) -> io::Result<Box<dyn StorageFile>> {
            if call(&self.0, "open", path).is_some() {
                return Err(injected("open"));
            }
            Ok(Box::new(RecordingFile {
                inner: FsStorage.open_append(path, create)?,
                path: path.to_path_buf(),
                disk: Arc::clone(&self.0),
            }))
        }

        fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
            match call(&self.0, "truncate", path) {
                Some(_) => Err(injected("truncate")),
                None => FsStorage.truncate(path, len),
            }
        }
    }

    /// `(op, name of the segment starting at seq)`, as [`Recording`] logs it.
    fn op(op: &'static str, seq: u64) -> (&'static str, String) {
        let path = segment_path(Path::new(""), seq);
        (op, path.to_string_lossy().into_owned())
    }

    #[test]
    fn injected_torn_append_poisons_and_recovery_repairs() {
        let dir = TempDir::new("torninj");
        let disk = Recording::default();
        let all = events(4);
        let config = WalConfig::new(dir.path());
        let mut wal = Wal::open_with(Arc::new(disk.clone()), config, FaultPlan::none())
            .unwrap()
            .wal;
        wal.append(&all[0]).unwrap();
        wal.append(&all[1]).unwrap();
        // Five bytes of the record land, and the heal that would cut
        // them off fails: the log poisons itself.
        disk.arm("write", ".wal", 5);
        disk.take_ops();
        assert!(wal.append(&all[2]).is_err());
        assert_eq!(disk.take_ops(), [op("write", 0), op("set_len", 0)]);
        assert!(wal.poisoned());
        assert!(wal.append(&all[3]).is_err(), "poisoned log refuses appends");
        assert!(disk.take_ops().is_empty());
        drop(wal);
        let rec = Wal::open(WalConfig::new(dir.path()), FaultPlan::none()).unwrap();
        assert_eq!(rec.tail, all[..2].to_vec());
        assert_eq!(rec.truncated_bytes, 5);
    }

    #[test]
    fn checkpoints_are_synced_before_the_rename_and_before_what_they_cover_is_deleted() {
        let dir = TempDir::new("ckpt-order");
        let disk = Recording::default();
        let config = WalConfig::new(dir.path())
            .with_segment_max_bytes(40)
            .with_fsync(true);
        let mut wal = Wal::open_with(Arc::new(disk.clone()), config, FaultPlan::none())
            .unwrap()
            .wal;
        let all = events(12);
        // Two records (10 + 35 bytes) fill the first segment; the third
        // rotates, and the full segment is synced before the next one is
        // created.
        for e in &all[..2] {
            wal.append(e).unwrap();
        }
        disk.take_ops();
        wal.append(&all[2]).unwrap();
        assert_eq!(
            disk.take_ops(),
            [op("sync", 0), op("open", 2), op("write", 2), op("sync", 2)]
        );
        for e in &all[3..] {
            wal.append(e).unwrap();
        }
        let text = "refmarket-snapshot v3\nend\n";
        for (seq, reset) in [(12, false), (40, true)] {
            disk.take_ops();
            if reset {
                wal.reset_to_checkpoint(seq, text).unwrap();
            } else {
                wal.checkpoint(text).unwrap();
            }
            // The temp file's writes and sync, its rename, then the
            // deletion of the segments and checkpoints it covers.
            let mut order: Vec<&str> = (disk.take_ops().iter())
                .filter_map(|(op, file)| match (*op, file.ends_with(".tmp")) {
                    ("write" | "sync" | "rename", true) | ("remove", false) => Some(*op),
                    _ => None,
                })
                .collect();
            order.dedup();
            assert_eq!(
                order,
                ["write", "sync", "rename", "remove"],
                "reset: {reset}"
            );
            let bytes = fs::read(checkpoint_path(dir.path(), seq)).unwrap();
            let want = format!(
                "{CHECKPOINT_MAGIC}\nseq {seq}\ncrc {:08x}\n{text}",
                crc32(text.as_bytes())
            );
            assert_eq!(String::from_utf8(bytes).unwrap(), want);
            assert_eq!(wal.checkpoint_bytes(), want.len() as u64);
        }
    }

    /// Thirty appends across two rotations and one checkpoint, with
    /// `fsync` on, each run failing one storage call once: a segment
    /// write (nothing lands; or a prefix, or the whole record, lands and
    /// the heal fails), a segment sync, rotation's open, or the
    /// checkpoint temp file's write, sync or rename. The log must reopen
    /// with every `Ok` append in order, and without the failed one
    /// unless it poisoned the log — and with it when the whole record
    /// landed: that outcome cannot be taken back.
    #[test]
    fn a_single_failing_storage_call_leaves_a_recoverable_log() {
        use ref_core::resource::Capacity;
        use ref_market::{MarketConfig, MarketEngine};

        const CHECKPOINT_AT: usize = 15;
        let market = MarketConfig::new(Capacity::new(vec![8.0, 4.0]).unwrap());
        let text = MarketEngine::new(market).unwrap().snapshot().encode();
        let all = events(30);
        const WHOLE: usize = usize::MAX;
        let segment_arms = [
            ("write", 0),
            ("write", 5),
            ("write", WHOLE),
            ("sync", 0),
            ("open", 0),
        ];
        let checkpoint_arms = [("write", 0), ("sync", 0), ("rename", 0)];
        let runs = (segment_arms.iter())
            .flat_map(|&(op, keep)| (0..all.len()).map(move |at| (op, ".wal", keep, at)))
            .chain((checkpoint_arms.iter()).map(|&(op, keep)| (op, ".tmp", keep, CHECKPOINT_AT)));
        let mut fired = std::collections::BTreeMap::new();
        for (op, suffix, keep, at) in runs {
            let run = format!("{op} {suffix} keeping {keep}, armed before append {at}");
            let dir = TempDir::new("onefault");
            let disk = Recording::default();
            let config = WalConfig::new(dir.path())
                .with_segment_max_bytes(200)
                .with_fsync(true);
            let mut wal = Wal::open_with(Arc::new(disk.clone()), config.clone(), FaultPlan::none())
                .unwrap()
                .wal;
            let (mut oks, mut failed, mut ckpt_seq) = (Vec::new(), None, None);
            for (i, e) in all.iter().enumerate() {
                if i == at {
                    disk.arm(op, suffix, keep);
                }
                if i == CHECKPOINT_AT {
                    let seq = wal.next_seq();
                    ckpt_seq = wal.checkpoint(&text).is_ok().then_some(seq);
                }
                match wal.append(e) {
                    Ok(_) => oks.push(e.clone()),
                    Err(_) if failed.is_none() => failed = Some(e.clone()),
                    Err(_) => assert!(wal.poisoned(), "{run}: one fault, one failed append"),
                }
                if i == CHECKPOINT_AT && ckpt_seq.is_none() {
                    assert!(
                        failed.is_none(),
                        "{run}: appends go on after a failed checkpoint"
                    );
                }
            }
            let poisoned = wal.poisoned();
            *fired.entry((op, suffix, keep)).or_insert(0) += u32::from(disk.fired());
            let opens = (disk.take_ops().iter())
                .filter(|(o, f)| *o == "open" && f.ends_with(".wal"))
                .count();
            assert!(
                poisoned || opens >= 3,
                "{run}: two rotations, {opens} opens"
            );
            drop(wal);

            let rec = Wal::open(config, FaultPlan::none())
                .unwrap_or_else(|e| panic!("{run}: reopen failed: {e}"));
            let covered = rec.checkpoint.as_ref().map(|(seq, _)| *seq);
            assert_eq!(covered, ckpt_seq, "{run}");
            let mut history = oks[..covered.unwrap_or(0) as usize].to_vec();
            history.extend(rec.tail);
            let with_failed: Vec<MarketEvent> = oks.iter().chain(&failed).cloned().collect();
            assert!(
                history == oks || (poisoned && history == with_failed),
                "{run}: recovered {} events, {} appends returned Ok (poisoned: {poisoned})",
                history.len(),
                oks.len()
            );
            if keep == WHOLE && failed.is_some() {
                assert!(poisoned && history == with_failed, "{run}");
            }
        }
        // Every arm fired in some run (one armed after the last call of
        // its kind does not).
        assert_eq!(fired.len(), 8, "{fired:?}");
        assert!(fired.values().all(|&n| n > 0), "{fired:?}");
    }

    #[test]
    fn checkpoints_prune_covered_segments() {
        use ref_core::resource::Capacity;
        use ref_market::{MarketConfig, MarketEngine};

        let dir = TempDir::new("ckpt");
        let market = MarketConfig::new(Capacity::new(vec![8.0, 4.0]).unwrap());
        let config = WalConfig::new(dir.path()).with_segment_max_bytes(96);
        let mut engine = MarketEngine::new(market.clone()).unwrap();
        let all = events(24);
        {
            let mut wal = Wal::open(config.clone(), FaultPlan::none()).unwrap().wal;
            for e in &all {
                wal.append(e).unwrap();
                let _ = engine.apply_now(e.clone());
            }
            wal.checkpoint(&engine.snapshot().encode()).unwrap();
            assert_eq!(wal.segments.len(), 1, "covered segments pruned");
            assert!(wal.first_retained_seq() > 0);
        }
        // Recovery restores from the checkpoint with an empty tail and
        // lands bit-identical to the live engine.
        let rec = Wal::open(config, FaultPlan::none()).unwrap();
        let (seq, snapshot) = rec.checkpoint.expect("checkpoint survives");
        assert_eq!(seq, 24);
        assert!(rec.tail.is_empty());
        let restored = MarketEngine::restore(&snapshot).unwrap();
        assert_eq!(
            restored.snapshot().encode(),
            engine.snapshot().encode(),
            "checkpointed state must be bit-identical"
        );
    }

    #[test]
    fn tail_torn_behind_a_checkpoint_drops_stale_segments() {
        use ref_core::resource::Capacity;
        use ref_market::{MarketConfig, MarketEngine};

        let dir = TempDir::new("ckptbehind");
        let market = MarketConfig::new(Capacity::new(vec![8.0, 4.0]).unwrap());
        let config = WalConfig::new(dir.path());
        let mut engine = MarketEngine::new(market).unwrap();
        let all = events(8);
        {
            let mut wal = Wal::open(config.clone(), FaultPlan::none()).unwrap().wal;
            for e in &all {
                wal.append(e).unwrap();
                let _ = engine.apply_now(e.clone());
            }
            wal.checkpoint(&engine.snapshot().encode()).unwrap();
        }
        // Tear the final record: the log now ends at seq 7, *behind* the
        // checkpoint at 8 — that record survives only inside the
        // checkpoint.
        let last = segment_path(dir.path(), 0);
        let len = fs::metadata(&last).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&last)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        // The checkpoint is authoritative; the stale segment (which can
        // no longer reach it) is dropped so the log stays gap-free.
        let rec = Wal::open(config, FaultPlan::none()).unwrap();
        assert_eq!(rec.wal.next_seq(), 8);
        assert!(rec.tail.is_empty());
        let (seq, snapshot) = rec.checkpoint.expect("checkpoint survives");
        assert_eq!(seq, 8);
        let restored = MarketEngine::restore(&snapshot).unwrap();
        assert_eq!(restored.snapshot().encode(), engine.snapshot().encode());
        let (first, read) = read_events_with(&FsStorage, dir.path()).unwrap();
        assert_eq!((first, read.len()), (8, 0), "no gap left behind");
    }

    #[test]
    fn retained_history_survives_checkpoints_for_full_reads() {
        use ref_core::resource::Capacity;
        use ref_market::{MarketConfig, MarketEngine};

        let dir = TempDir::new("retain");
        let market = MarketConfig::new(Capacity::new(vec![8.0, 4.0]).unwrap());
        let config = WalConfig::new(dir.path())
            .with_segment_max_bytes(96)
            .with_retain_history(true);
        let mut engine = MarketEngine::new(market).unwrap();
        let all = events(24);
        let mut wal = Wal::open(config, FaultPlan::none()).unwrap().wal;
        for e in &all {
            wal.append(e).unwrap();
            let _ = engine.apply_now(e.clone());
        }
        wal.checkpoint(&engine.snapshot().encode()).unwrap();
        let (first, read) = wal.read_events().unwrap();
        assert_eq!(first, 0);
        assert_eq!(read, all);
    }

    #[test]
    fn scrub_is_clean_on_a_healthy_log_and_finds_planted_damage() {
        use ref_core::resource::Capacity;
        use ref_market::{MarketConfig, MarketEngine};

        let dir = TempDir::new("scrub");
        let market = MarketConfig::new(Capacity::new(vec![8.0, 4.0]).unwrap());
        let config = WalConfig::new(dir.path())
            .with_segment_max_bytes(96)
            .with_retain_history(true);
        let mut engine = MarketEngine::new(market).unwrap();
        let all = events(24);
        let mut wal = Wal::open(config, FaultPlan::none()).unwrap().wal;
        for e in &all {
            wal.append(e).unwrap();
            let _ = engine.apply_now(e.clone());
        }
        wal.checkpoint(&engine.snapshot().encode()).unwrap();

        let report = wal.scrub().unwrap();
        assert!(
            report.is_clean(),
            "healthy log must scrub clean: {report:?}"
        );
        assert_eq!(report.records, 24);
        assert!(report.segments >= 3);
        assert_eq!(report.checkpoints, 1);

        // Flip one payload byte in the first segment — damage that
        // `Wal::open` would refuse but a live server never re-reads.
        let path = segment_path(dir.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        // And damage the checkpoint body.
        let ckpt = checkpoint_path(dir.path(), 24);
        let mut text = fs::read_to_string(&ckpt).unwrap();
        text.push_str("garbage\n");
        fs::write(&ckpt, text).unwrap();

        let report = scrub(dir.path()).unwrap();
        assert_eq!(report.errors.len(), 2, "{report:?}");
        assert!(!report.is_clean());
    }

    #[test]
    fn scrub_of_missing_dir_is_empty_and_clean() {
        let dir = TempDir::new("scrubmissing");
        let report = scrub(&dir.path().join("nope")).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.segments + report.checkpoints, 0);
    }

    #[test]
    fn scheduled_faults_fire_once_each_at_their_sequences() {
        let dir = TempDir::new("sched");
        let disk = Recording::default();
        let config = WalConfig::new(dir.path()).with_fsync(true);
        let all = events(6);
        let mut wal = Wal::open_with(Arc::new(disk.clone()), config.clone(), FaultPlan::none())
            .unwrap()
            .wal;
        let size = || fs::metadata(segment_path(dir.path(), 0)).unwrap().len();
        wal.append(&all[0]).unwrap();
        // seq 1: the write fails with nothing landing; the retry succeeds.
        disk.arm("write", ".wal", 0);
        let before = size();
        assert!(wal.append(&all[1]).is_err());
        assert_eq!(size(), before);
        assert!(!wal.poisoned());
        assert_eq!(wal.append(&all[1]).unwrap(), 1);
        // seq 2: the fsync fails; the heal rolls the bytes back, retry ok.
        disk.arm("sync", ".wal", 0);
        let before = size();
        disk.take_ops();
        assert!(wal.append(&all[2]).is_err());
        assert_eq!(
            disk.take_ops(),
            [op("write", 0), op("sync", 0), op("set_len", 0)]
        );
        assert_eq!(size(), before);
        assert!(!wal.poisoned());
        assert_eq!(wal.append(&all[2]).unwrap(), 2);
        wal.append(&all[3]).unwrap();
        // seq 4: a torn write whose heal fails poisons the log.
        disk.arm("write", ".wal", 5);
        assert!(wal.append(&all[4]).is_err());
        assert!(wal.poisoned());
        drop(wal);
        let rec = Wal::open(config, FaultPlan::none()).unwrap();
        assert_eq!(rec.tail, all[..4].to_vec());
        assert_eq!(rec.truncated_bytes, 5);
    }

    #[test]
    fn damaged_checkpoint_falls_back_to_older_one() {
        use ref_core::resource::Capacity;
        use ref_market::{MarketConfig, MarketEngine};

        let dir = TempDir::new("ckptfall");
        let market = MarketConfig::new(Capacity::new(vec![8.0, 4.0]).unwrap());
        let config = WalConfig::new(dir.path()).with_retain_history(true);
        let mut engine = MarketEngine::new(market).unwrap();
        let all = events(10);
        {
            let mut wal = Wal::open(config.clone(), FaultPlan::none()).unwrap().wal;
            for (i, e) in all.iter().enumerate() {
                wal.append(e).unwrap();
                let _ = engine.apply_now(e.clone());
                if i == 4 {
                    wal.checkpoint(&engine.snapshot().encode()).unwrap();
                }
            }
            wal.checkpoint(&engine.snapshot().encode()).unwrap();
        }
        // Corrupt the newest checkpoint; recovery must fall back to the
        // older one and replay the longer tail.
        let newest = checkpoint_path(dir.path(), 10);
        let mut text = fs::read_to_string(&newest).unwrap();
        text.push_str("garbage\n");
        fs::write(&newest, text).unwrap();
        let rec = Wal::open(config, FaultPlan::none()).unwrap();
        let (seq, _) = rec.checkpoint.expect("older checkpoint");
        assert_eq!(seq, 5);
        assert_eq!(rec.tail, all[5..].to_vec());
    }

    #[test]
    fn snap_text_is_the_checkpoint_body_byte_for_byte() {
        use ref_core::resource::Capacity;
        use ref_market::{MarketConfig, MarketEngine};

        let dir = TempDir::new("ckptbody");
        let market = MarketConfig::new(Capacity::new(vec![8.0, 4.0]).unwrap());
        let config = WalConfig::new(dir.path()).with_retain_history(true);
        let mut engine = MarketEngine::new(market).unwrap();
        let mut wal = Wal::open(config, FaultPlan::none()).unwrap().wal;
        for e in events(6) {
            wal.append(&e).unwrap();
            let _ = engine.apply_now(e);
        }
        wal.checkpoint(&engine.snapshot().encode()).unwrap();
        // The body is what follows the magic, seq and crc lines.
        let body = |seq| {
            let file = fs::read_to_string(checkpoint_path(dir.path(), seq)).unwrap();
            file.splitn(4, '\n').nth(3).unwrap().to_string()
        };
        let snap = newest_checkpoint_with(&FsStorage, dir.path()).unwrap();
        assert_eq!(snap, Some((6, body(6))));
        // A newer checkpoint whose body passes its checksum but is no
        // snapshot is skipped: the text still decodes once.
        wal.append(&join(99)).unwrap();
        wal.checkpoint("not a snapshot\n").unwrap();
        assert_eq!(body(7), "not a snapshot\n");
        let snap = newest_checkpoint_with(&FsStorage, dir.path()).unwrap();
        assert_eq!(snap, Some((6, body(6))));
    }
}

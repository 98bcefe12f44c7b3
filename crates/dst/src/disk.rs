//! `SimDisk`: an in-memory [`Storage`] implementation with seeded fault
//! injection.
//!
//! The WAL's real segment codec runs unmodified above this disk — same
//! framing, same CRCs, same checkpoint rename dance — so recovery,
//! scrub, and torn-tail repair are exercised against the byte formats
//! production writes. The disk itself can misbehave on demand:
//!
//! - **Torn write**: the next append lands only a prefix of its bytes
//!   and reports failure, and the handle's self-heal truncation fails
//!   once too — exactly the state a power cut mid-append leaves behind.
//!   The WAL poisons itself; recovery truncates the torn tail.
//! - **Failed fsync**: the next N `sync_data` calls error, turning
//!   appends into loud transient failures.
//! - **Bit flip**: one bit of a checkpoint already *covered* by a newer
//!   one flips — latent rot off the recovery path that only
//!   [`ref_serve::wal::scrub_with`] can find.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use ref_serve::{Storage, StorageFile};

/// The shared in-memory filesystem. Cloning shares the contents.
#[derive(Debug, Clone, Default)]
pub(crate) struct SimDisk {
    inner: Arc<Mutex<DiskInner>>,
}

#[derive(Debug, Default, Clone)]
struct DiskInner {
    dirs: BTreeSet<PathBuf>,
    files: BTreeMap<PathBuf, Vec<u8>>,
    /// Bytes of the next append that land before it "fails"; arming
    /// this also blocks the next `set_len` so the WAL's self-heal
    /// fails and the torn tail survives until recovery.
    torn_keep: Option<usize>,
    torn_block_heal: bool,
    fail_syncs: u32,
    bits_flipped: u64,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: not found", path.display()),
    )
}

impl SimDisk {
    /// An empty disk.
    pub(crate) fn new() -> SimDisk {
        SimDisk::default()
    }

    /// Arms a torn write: the next `write_all` through any handle keeps
    /// only its first `keep` bytes and errors, and the follow-up
    /// self-heal `set_len` errors once as well.
    pub(crate) fn arm_torn_write(&self, keep: usize) {
        let mut inner = self.inner.lock().expect("disk lock poisoned");
        inner.torn_keep = Some(keep);
        inner.torn_block_heal = true;
    }

    /// Makes the next `n` `sync_data` calls fail.
    pub(crate) fn fail_next_syncs(&self, n: u32) {
        self.inner.lock().expect("disk lock poisoned").fail_syncs = n;
    }

    /// Flips one bit in the oldest checkpoint under `dir`, provided a
    /// newer checkpoint covers it (so recovery is untouched and only a
    /// scrub can notice). Returns the damaged path, or `None` when no
    /// covered checkpoint exists yet.
    pub(crate) fn flip_bit_in_covered_checkpoint(&self, dir: &Path) -> Option<PathBuf> {
        let mut inner = self.inner.lock().expect("disk lock poisoned");
        let checkpoints: Vec<PathBuf> = inner
            .files
            .keys()
            .filter(|p| {
                p.parent() == Some(dir)
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".ckpt"))
            })
            .cloned()
            .collect();
        // Checkpoint names embed the sequence zero-padded, so the
        // lexicographically smallest is the oldest.
        if checkpoints.len() < 2 {
            return None;
        }
        let victim = checkpoints[0].clone();
        let bytes = inner.files.get_mut(&victim)?;
        if bytes.is_empty() {
            return None;
        }
        // Walk offset and bit with each strike so a second flip never
        // cancels the first one out.
        let strikes = inner.bits_flipped;
        let bytes = inner.files.get_mut(&victim)?;
        let offset = (bytes.len() / 2 + strikes as usize) % bytes.len();
        bytes[offset] ^= 1u8 << (strikes % 8);
        inner.bits_flipped += 1;
        Some(victim)
    }

    /// An independent copy of this disk, armed faults included: what a
    /// boot would find if the node crashed now, without touching the
    /// node's own disk.
    pub(crate) fn fork(&self) -> SimDisk {
        let copy = self.inner.lock().expect("disk lock poisoned").clone();
        SimDisk {
            inner: Arc::new(Mutex::new(copy)),
        }
    }
}

/// An open append-only handle into a [`SimDisk`] file.
#[derive(Debug)]
pub(crate) struct SimFile {
    inner: Arc<Mutex<DiskInner>>,
    path: PathBuf,
}

impl StorageFile for SimFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("disk lock poisoned");
        if let Some(keep) = inner.torn_keep.take() {
            let keep = keep.min(bytes.len());
            let partial = bytes[..keep].to_vec();
            let file = inner.files.entry(self.path.clone()).or_default();
            file.extend_from_slice(&partial);
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!("torn write: {keep} of {} bytes landed", bytes.len()),
            ));
        }
        inner
            .files
            .entry(self.path.clone())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("disk lock poisoned");
        if inner.fail_syncs > 0 {
            inner.fail_syncs -= 1;
            return Err(io::Error::other("injected fsync failure"));
        }
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("disk lock poisoned");
        if inner.torn_block_heal {
            inner.torn_block_heal = false;
            return Err(io::Error::other(
                "injected truncate failure after torn write",
            ));
        }
        let file = inner
            .files
            .get_mut(&self.path)
            .ok_or_else(|| not_found(&self.path))?;
        file.resize(usize::try_from(len).unwrap_or(usize::MAX), 0);
        Ok(())
    }
}

impl Storage for SimDisk {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("disk lock poisoned");
        let mut cur = PathBuf::new();
        for part in dir.components() {
            cur.push(part);
            inner.dirs.insert(cur.clone());
        }
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let inner = self.inner.lock().expect("disk lock poisoned");
        if !inner.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        Ok(inner
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn exists(&self, path: &Path) -> bool {
        let inner = self.inner.lock().expect("disk lock poisoned");
        inner.files.contains_key(path) || inner.dirs.contains(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let inner = self.inner.lock().expect("disk lock poisoned");
        inner
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("disk lock poisoned");
        inner.files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("disk lock poisoned");
        let bytes = inner.files.remove(from).ok_or_else(|| not_found(from))?;
        inner.files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("disk lock poisoned");
        inner
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let inner = self.inner.lock().expect("disk lock poisoned");
        inner
            .files
            .get(path)
            .map(|b| b.len() as u64)
            .ok_or_else(|| not_found(path))
    }

    fn open_append(&self, path: &Path, create: bool) -> io::Result<Box<dyn StorageFile>> {
        let mut inner = self.inner.lock().expect("disk lock poisoned");
        if !inner.files.contains_key(path) {
            if !create {
                return Err(not_found(path));
            }
            inner.files.insert(path.to_path_buf(), Vec::new());
        }
        Ok(Box::new(SimFile {
            inner: Arc::clone(&self.inner),
            path: path.to_path_buf(),
        }))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("disk lock poisoned");
        let file = inner.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.truncate(usize::try_from(len).unwrap_or(usize::MAX));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_filesystem_semantics() {
        let disk = SimDisk::new();
        let dir = Path::new("/sim/a");
        disk.create_dir_all(dir).unwrap();
        assert!(disk.list_dir(dir).unwrap().is_empty());
        assert!(disk.list_dir(Path::new("/nope")).is_err());

        let mut f = disk.open_append(&dir.join("x.wal"), true).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        assert_eq!(disk.read(&dir.join("x.wal")).unwrap(), b"hello");
        assert_eq!(disk.len(&dir.join("x.wal")).unwrap(), 5);

        disk.write(&dir.join("t.tmp"), b"ckpt").unwrap();
        disk.rename(&dir.join("t.tmp"), &dir.join("c.ckpt"))
            .unwrap();
        assert!(!disk.exists(&dir.join("t.tmp")));
        assert_eq!(disk.list_dir(dir).unwrap().len(), 2);

        disk.truncate(&dir.join("x.wal"), 2).unwrap();
        assert_eq!(disk.read(&dir.join("x.wal")).unwrap(), b"he");
        disk.remove_file(&dir.join("c.ckpt")).unwrap();
        assert!(disk.remove_file(&dir.join("c.ckpt")).is_err());
    }

    #[test]
    fn torn_write_lands_prefix_and_blocks_self_heal_once() {
        let disk = SimDisk::new();
        let dir = Path::new("/sim/t");
        disk.create_dir_all(dir).unwrap();
        let path = dir.join("seg.wal");
        let mut f = disk.open_append(&path, true).unwrap();
        f.write_all(b"whole-record").unwrap();

        disk.arm_torn_write(3);
        assert!(f.write_all(b"torn-record").is_err());
        assert_eq!(disk.read(&path).unwrap(), b"whole-recordtor");
        // Self-heal truncation fails once, then works again.
        assert!(f.set_len(12).is_err());
        f.set_len(12).unwrap();
        assert_eq!(disk.read(&path).unwrap(), b"whole-record");
    }

    #[test]
    fn fsync_failures_are_counted_down() {
        let disk = SimDisk::new();
        disk.create_dir_all(Path::new("/sim")).unwrap();
        let mut f = disk.open_append(Path::new("/sim/f.wal"), true).unwrap();
        disk.fail_next_syncs(2);
        assert!(f.sync_data().is_err());
        assert!(f.sync_data().is_err());
        assert!(f.sync_data().is_ok());
    }

    #[test]
    fn bit_flip_targets_only_covered_checkpoints() {
        let disk = SimDisk::new();
        let dir = Path::new("/sim/w");
        disk.create_dir_all(dir).unwrap();
        assert!(disk.flip_bit_in_covered_checkpoint(dir).is_none());
        disk.write(
            &dir.join("checkpoint-0000000000000004.ckpt"),
            b"old-snapshot",
        )
        .unwrap();
        assert!(disk.flip_bit_in_covered_checkpoint(dir).is_none());
        disk.write(
            &dir.join("checkpoint-0000000000000008.ckpt"),
            b"new-snapshot",
        )
        .unwrap();
        let hit = disk.flip_bit_in_covered_checkpoint(dir).unwrap();
        assert!(hit.to_string_lossy().ends_with("0004.ckpt"));
        assert_ne!(
            disk.read(&dir.join("checkpoint-0000000000000004.ckpt"))
                .unwrap(),
            b"old-snapshot"
        );
        assert_eq!(
            disk.read(&dir.join("checkpoint-0000000000000008.ckpt"))
                .unwrap(),
            b"new-snapshot"
        );
    }
}

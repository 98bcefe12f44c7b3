//! The storage seam: a minimal filesystem trait the WAL writes through.
//!
//! [`crate::wal`] never touches [`std::fs`] directly; every directory
//! listing, segment read, append, rename and truncation goes through a
//! [`Storage`] implementation. In production that is [`FsStorage`], a
//! zero-state newtype over the real filesystem whose methods compile to
//! the exact `std::fs` calls the WAL used to make — same syscalls, same
//! byte-level behavior, same error kinds. Under deterministic simulation
//! (the `ref-dst` crate) it is an in-memory `SimDisk` that can inject
//! torn tails, failed fsyncs and bit flips on a seeded schedule while
//! reusing the real segment codec above it. This is the one place disk
//! faults are injected: the WAL above it carries no model of them, so
//! its real self-heal and poison paths meet every fault a test arms.
//!
//! The trait is deliberately small: it models exactly the operations the
//! WAL performs (there is no general `open`, no cursors, no permissions)
//! so a simulated implementation can be exhaustive about failure
//! injection without re-implementing POSIX.

use std::fs::{self, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// An open append-only file handle (one WAL segment).
///
/// Writes always land at the current end of file; [`set_len`] may shrink
/// the file (the WAL's self-heal after a failed append), after which
/// appends continue from the new end.
///
/// [`set_len`]: StorageFile::set_len
pub trait StorageFile: std::fmt::Debug + Send {
    /// Appends `bytes` at the end of the file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure; partial writes may have
    /// landed (the WAL self-heals via [`StorageFile::set_len`]).
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Flushes file *data* to durable storage (`fdatasync`).
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    fn sync_data(&mut self) -> io::Result<()>;

    /// Truncates (or extends) the file to `len` bytes; subsequent
    /// appends continue from the new end.
    ///
    /// # Errors
    ///
    /// Propagates the truncation failure.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The filesystem surface the WAL needs (see the module docs).
///
/// Implementations must be usable from multiple threads: the server's
/// shards each own a [`crate::wal::Wal`] over a shared storage handle.
pub trait Storage: std::fmt::Debug + Send + Sync {
    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    ///
    /// Propagates the underlying failure.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Non-recursive listing of `dir`, as full paths in arbitrary order.
    ///
    /// # Errors
    ///
    /// Propagates the underlying failure (e.g. a missing directory).
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Whether `path` exists (file or directory).
    fn exists(&self, path: &Path) -> bool;

    /// Reads a file's entire contents.
    ///
    /// # Errors
    ///
    /// Propagates the underlying failure.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes (creating or replacing) `path` with `bytes`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying failure.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` to `to` (the checkpoint commit step).
    ///
    /// # Errors
    ///
    /// Propagates the underlying failure.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Deletes a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying failure.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// A file's size in bytes.
    ///
    /// # Errors
    ///
    /// Propagates the underlying failure.
    fn len(&self, path: &Path) -> io::Result<u64>;

    /// Opens `path` for appending, creating it when `create` is set;
    /// the write position is the current end of file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying failure.
    fn open_append(&self, path: &Path, create: bool) -> io::Result<Box<dyn StorageFile>>;

    /// Truncates an *unopened* file to `len` bytes and syncs it — the
    /// torn-tail repair recovery performs before reopening a segment.
    ///
    /// # Errors
    ///
    /// Propagates the underlying failure.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
}

/// The real filesystem: every method is the `std::fs` call the WAL
/// would otherwise make inline. Stateless and zero-cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsStorage;

/// A real [`std::fs::File`] opened in append mode.
#[derive(Debug)]
pub struct FsFile(fs::File);

impl StorageFile for FsFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all(bytes)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)?;
        // Append-mode writes land at EOF regardless, but reposition the
        // cursor so the handle's notion of the end matches the file's.
        self.0.seek(SeekFrom::End(0))?;
        Ok(())
    }
}

impl Storage for FsStorage {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut paths = Vec::new();
        for entry in fs::read_dir(dir)? {
            paths.push(entry?.path());
        }
        Ok(paths)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        fs::metadata(path).map(|m| m.len())
    }

    fn open_append(&self, path: &Path, create: bool) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new().create(create).append(true).open(path)?;
        Ok(Box::new(FsFile(file)))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fs_storage_round_trips_a_file() {
        let dir = std::env::temp_dir().join(format!("ref-storage-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let storage = FsStorage;
        storage.create_dir_all(&dir).unwrap();
        let path = dir.join("a.bin");
        assert!(!storage.exists(&path));
        storage.write(&path, b"hello").unwrap();
        assert!(storage.exists(&path));
        assert_eq!(storage.read(&path).unwrap(), b"hello");
        assert_eq!(storage.len(&path).unwrap(), 5);

        let mut file = storage.open_append(&path, false).unwrap();
        file.write_all(b" world").unwrap();
        file.sync_data().unwrap();
        drop(file);
        assert_eq!(storage.read(&path).unwrap(), b"hello world");

        storage.truncate(&path, 5).unwrap();
        assert_eq!(storage.read(&path).unwrap(), b"hello");

        let renamed = dir.join("b.bin");
        storage.rename(&path, &renamed).unwrap();
        let listed = storage.list_dir(&dir).unwrap();
        assert_eq!(listed, vec![renamed.clone()]);
        storage.remove_file(&renamed).unwrap();
        assert!(storage.list_dir(&dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_set_len_continues_at_the_new_end() {
        let dir = std::env::temp_dir().join(format!("ref-storage-heal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let storage = FsStorage;
        storage.create_dir_all(&dir).unwrap();
        let path = dir.join("seg.wal");
        let mut file = storage.open_append(&path, true).unwrap();
        file.write_all(b"aaaa").unwrap();
        file.write_all(b"bbbb").unwrap();
        file.set_len(4).unwrap();
        file.write_all(b"cc").unwrap();
        drop(file);
        assert_eq!(storage.read(&path).unwrap(), b"aaaacc");
        let _ = fs::remove_dir_all(&dir);
    }
}

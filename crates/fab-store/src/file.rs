//! The real filesystem backend: buffered appends, explicit `fsync`, parent-directory
//! fsync for durable metadata, and syscall counters that show what a
//! [`SyncPolicy`](crate::SyncPolicy) costs.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::{StorageBackend, StorageError};

/// Syscall counters for a [`FileBackend`] — what the fsync discipline actually costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileStats {
    /// Files created (open with truncate).
    pub creates: u64,
    /// Append calls (application-buffer writes; free until flushed).
    pub appends: u64,
    /// `write(2)` flushes of buffered appends.
    pub flushes: u64,
    /// File `fsync`s (`sync_data`).
    pub syncs: u64,
    /// Renames.
    pub renames: u64,
    /// Removals.
    pub removes: u64,
    /// Parent-directory `fsync`s.
    pub dir_syncs: u64,
}

/// One open file: the handle plus an application-side append buffer, so
/// [`StorageBackend::append`] costs nothing until [`StorageBackend::flush`] — the same
/// three-tier discipline [`SimDisk`](crate::SimDisk) models.
#[derive(Debug)]
struct OpenFile {
    handle: File,
    buffer: Vec<u8>,
}

/// Durable file storage rooted at a directory. File names are flat (no subdirectories),
/// which keeps "the parent directory" singular: one [`StorageBackend::sync_dir`] makes
/// every create / rename / remove so far durable.
#[derive(Debug)]
pub struct FileBackend {
    root: PathBuf,
    open: BTreeMap<String, OpenFile>,
    ops: u64,
    stats: FileStats,
}

fn io_err(op: &'static str, path: &str, err: std::io::Error) -> StorageError {
    if err.kind() == std::io::ErrorKind::NotFound {
        StorageError::NotFound {
            path: path.to_string(),
        }
    } else {
        StorageError::Io {
            op,
            path: path.to_string(),
            reason: err.to_string(),
        }
    }
}

impl FileBackend {
    /// Opens a backend rooted at `root`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the directory cannot be created.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StorageError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)
            .map_err(|e| io_err("create_dir", &root.display().to_string(), e))?;
        Ok(Self {
            root,
            open: BTreeMap::new(),
            ops: 0,
            stats: FileStats::default(),
        })
    }

    /// Syscall counters so far.
    pub fn stats(&self) -> FileStats {
        self.stats
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn open_mut(&mut self, op: &'static str, name: &str) -> Result<&mut OpenFile, StorageError> {
        if !self.open.contains_key(name) {
            // Re-open an existing file for appends (e.g. after recovery picked it up).
            let path = self.path_of(name);
            let handle = OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| io_err(op, name, e))?;
            self.open.insert(
                name.to_string(),
                OpenFile {
                    handle,
                    buffer: Vec::new(),
                },
            );
        }
        Ok(self.open.get_mut(name).expect("inserted above"))
    }
}

impl StorageBackend for FileBackend {
    fn create(&mut self, name: &str) -> Result<(), StorageError> {
        self.ops += 1;
        self.stats.creates += 1;
        let path = self.path_of(name);
        let handle = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create", name, e))?;
        self.open.insert(
            name.to_string(),
            OpenFile {
                handle,
                buffer: Vec::new(),
            },
        );
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.ops += 1;
        self.stats.appends += 1;
        let file = self.open_mut("append", name)?;
        file.buffer.extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self, name: &str) -> Result<(), StorageError> {
        self.ops += 1;
        self.stats.flushes += 1;
        let file = self.open_mut("flush", name)?;
        if !file.buffer.is_empty() {
            let buffered = std::mem::take(&mut file.buffer);
            file.handle
                .write_all(&buffered)
                .map_err(|e| io_err("flush", name, e))?;
        }
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        self.flush(name)?;
        self.ops += 1;
        self.stats.syncs += 1;
        let file = self.open_mut("sync", name)?;
        file.handle.sync_data().map_err(|e| io_err("sync", name, e))
    }

    fn read(&mut self, name: &str) -> Result<Vec<u8>, StorageError> {
        // Reads must observe buffered appends; flush first if the file is open.
        if self.open.contains_key(name) {
            self.flush(name)?;
        }
        std::fs::read(self.path_of(name)).map_err(|e| io_err("read", name, e))
    }

    fn exists(&self, name: &str) -> bool {
        self.path_of(name).exists()
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.ops += 1;
        self.stats.removes += 1;
        self.open.remove(name);
        std::fs::remove_file(self.path_of(name)).map_err(|e| io_err("remove", name, e))
    }

    fn rename(&mut self, src: &str, dst: &str) -> Result<(), StorageError> {
        // Flush (not sync — the caller owns the discipline) so the renamed file holds
        // everything appended so far.
        if self.open.contains_key(src) {
            self.flush(src)?;
        }
        self.ops += 1;
        self.stats.renames += 1;
        self.open.remove(src);
        self.open.remove(dst);
        std::fs::rename(self.path_of(src), self.path_of(dst)).map_err(|e| io_err("rename", src, e))
    }

    fn sync_dir(&mut self) -> Result<(), StorageError> {
        self.ops += 1;
        self.stats.dir_syncs += 1;
        let dir = File::open(&self.root)
            .map_err(|e| io_err("sync_dir", &self.root.display().to_string(), e))?;
        dir.sync_all()
            .map_err(|e| io_err("sync_dir", &self.root.display().to_string(), e))
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut names = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                if let Ok(name) = entry.file_name().into_string() {
                    if name.starts_with(prefix) {
                        names.push(name);
                    }
                }
            }
        }
        names.sort();
        names
    }

    fn op_count(&self) -> u64 {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_atomic;

    fn temp_root(tag: &str) -> PathBuf {
        let pid = std::process::id();
        std::env::temp_dir().join(format!("fab-store-{tag}-{pid}"))
    }

    #[test]
    fn append_flush_sync_read_roundtrip() {
        let root = temp_root("roundtrip");
        let _ = std::fs::remove_dir_all(&root);
        let mut fs = FileBackend::open(&root).unwrap();
        fs.create("seg-0.wal").unwrap();
        fs.append("seg-0.wal", b"hello ").unwrap();
        fs.append("seg-0.wal", b"journal").unwrap();
        assert_eq!(fs.read("seg-0.wal").unwrap(), b"hello journal");
        fs.sync("seg-0.wal").unwrap();
        fs.sync_dir().unwrap();

        // A fresh backend (new process) sees the same bytes and can keep appending.
        let mut fresh = FileBackend::open(&root).unwrap();
        assert_eq!(fresh.read("seg-0.wal").unwrap(), b"hello journal");
        fresh.append("seg-0.wal", b"!").unwrap();
        fresh.sync("seg-0.wal").unwrap();
        assert_eq!(fresh.read("seg-0.wal").unwrap(), b"hello journal!");
        assert_eq!(fresh.list("seg-"), vec!["seg-0.wal".to_string()]);

        let stats = fresh.stats();
        assert!(stats.syncs == 1 && stats.appends == 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn atomic_write_replaces_and_missing_files_are_not_found() {
        let root = temp_root("atomic");
        let _ = std::fs::remove_dir_all(&root);
        let mut fs = FileBackend::open(&root).unwrap();
        write_atomic(&mut fs, "model.ckpt", b"v1").unwrap();
        write_atomic(&mut fs, "model.ckpt", b"v2-longer").unwrap();
        assert_eq!(fs.read("model.ckpt").unwrap(), b"v2-longer");
        assert!(!fs.exists("model.ckpt.tmp"), "temp name must not linger");
        assert!(matches!(
            fs.read("absent.ckpt").unwrap_err(),
            StorageError::NotFound { .. }
        ));
        assert!(matches!(
            fs.remove("absent.ckpt").unwrap_err(),
            StorageError::NotFound { .. }
        ));
        assert!(fs.stats().dir_syncs >= 2, "atomic writes fsync the dir");
        let _ = std::fs::remove_dir_all(&root);
    }
}

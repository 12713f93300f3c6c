//! Durable storage backends for the serving journal and training checkpoints.
//!
//! The *formats* are crash-safe byte-for-byte: journal records and checkpoint blobs are
//! validated blobs that recover a clean prefix or fail typed. The layer underneath is this
//! crate's — a plain write followed by a rename, with no fsync, is not durable, so a power
//! loss could still lose everything the format protects. This crate holds that contract
//! and, just as importantly, makes the claim *testable*:
//!
//! * [`StorageBackend`] is the seam: append / flush / sync / rename / directory-sync over a
//!   flat file namespace. Everything above it (the segmented journal, checkpoint writes)
//!   is written once against the trait, and nothing above it touches a file any other way
//!   (CI greps for that).
//! * [`FileBackend`] is the real thing: buffered appends, explicit `fsync` on
//!   [`StorageBackend::sync`], and parent-directory fsync on [`StorageBackend::sync_dir`]
//!   so renames and creations are durable — with syscall counters.
//! * [`SimDisk`] is a deterministic disk model with the **true crash surface**: data that
//!   was appended but never synced can be lost wholesale, torn mid-write (partial-sector),
//!   or survive *out of order* (a later unsynced write persists while an earlier one does
//!   not, leaving a zero-filled hole); directory operations that were never followed by a
//!   [`StorageBackend::sync_dir`] may or may not have reached the disk. A seeded
//!   enumeration ([`SimDisk::arm_crash`] + [`SimDisk::crash_surface`]) kills the disk at
//!   every syscall boundary and draws reproducible post-crash states, so recovery code is
//!   exercised against every interleaving a real power loss could produce — not just the
//!   friendly ones.
//! * [`SyncPolicy`] names the fsync discipline a writer runs under (every append, every
//!   N appends, group commit by interval), and documents exactly what each policy does and
//!   does not guarantee under power loss.
//!
//! The crash model is deliberately adversarial but physical: **synced bytes never change**,
//! and a rename is atomic per name (a crash sees the old target or the new one, never a
//! half-name). Everything unsynced is fair game.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod file;
mod sim;

use std::fmt;

pub use file::{FileBackend, FileStats};
pub use sim::{CrashSurface, SharedDisk, SimDisk};

/// A storage-layer failure, typed by what it means for the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A real filesystem operation failed (permissions, disk full, unexpected OS error).
    Io {
        /// The backend operation that failed.
        op: &'static str,
        /// The file (or directory) the operation targeted.
        path: String,
        /// The underlying error, rendered.
        reason: String,
    },
    /// The file does not exist. Distinct from [`StorageError::Io`] so callers can treat a
    /// missing file as a state ("no checkpoint yet") rather than a fault.
    NotFound {
        /// The missing path.
        path: String,
    },
    /// The simulated disk's armed crash point fired (or had already fired): the operation
    /// did not happen and no further operation will. The harness inspects the disk's crash
    /// surface to see what survived.
    Crashed {
        /// The operation that was refused.
        op: &'static str,
        /// The file the operation targeted.
        path: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, path, reason } => {
                write!(f, "storage {op} on {path} failed: {reason}")
            }
            StorageError::NotFound { path } => write!(f, "storage file {path} not found"),
            StorageError::Crashed { op, path } => {
                write!(f, "simulated disk crashed at {op} on {path}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    /// Whether this is the simulated-disk crash latch (the harness treats it as process
    /// death, not as an error to handle).
    pub fn is_crash(&self) -> bool {
        matches!(self, StorageError::Crashed { .. })
    }
}

/// The durable-storage seam: a flat namespace of append-only files plus the directory
/// operations (create / rename / remove) that manage them.
///
/// # Durability contract
///
/// * [`append`](Self::append) buffers; the bytes are not even guaranteed to reach the OS.
/// * [`flush`](Self::flush) pushes buffered appends to the OS (the `write(2)` boundary).
///   Flushed-but-unsynced data sits in the page cache: a process crash keeps it, a power
///   loss may drop it, **tear it mid-write, or apply it out of order**.
/// * [`sync`](Self::sync) is `fsync`: everything appended to the file so far survives any
///   later crash, in order, byte-for-byte.
/// * [`create`](Self::create) / [`rename`](Self::rename) / [`remove`](Self::remove) are
///   directory-metadata operations; they are visible to this process immediately but only
///   durable after [`sync_dir`](Self::sync_dir) (the parent-directory fsync POSIX
///   requires). A rename is atomic per name even across a crash: the name resolves to the
///   old file or the new one, never to a torn mixture.
///
/// [`op_count`](Self::op_count) numbers the syscall boundaries; the [`SimDisk`]
/// implementation can be armed to crash at any of them, which is how the crash-sweep
/// suites enumerate every kill site.
pub trait StorageBackend: fmt::Debug {
    /// Creates `path` empty (truncating an existing file) and opens it for appends.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on filesystem failure; [`StorageError::Crashed`] once a
    /// simulated crash has fired.
    fn create(&mut self, path: &str) -> Result<(), StorageError>;

    /// Appends bytes to `path` (buffered — not durable, possibly not even in the OS yet).
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] if the file was never created; [`StorageError::Io`] /
    /// [`StorageError::Crashed`] as for [`Self::create`].
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// Pushes buffered appends to the OS (`write(2)`): survives a process crash, remains
    /// at the mercy of a power loss.
    ///
    /// # Errors
    ///
    /// As for [`Self::append`].
    fn flush(&mut self, path: &str) -> Result<(), StorageError>;

    /// `fsync`: all bytes appended to `path` so far become durable.
    ///
    /// # Errors
    ///
    /// As for [`Self::append`].
    fn sync(&mut self, path: &str) -> Result<(), StorageError>;

    /// Reads the file's current contents (buffered appends included).
    ///
    /// # Errors
    ///
    /// As for [`Self::append`].
    fn read(&mut self, path: &str) -> Result<Vec<u8>, StorageError>;

    /// Whether `path` currently exists.
    fn exists(&self, path: &str) -> bool;

    /// Removes `path` (directory op: durable after [`Self::sync_dir`]).
    ///
    /// # Errors
    ///
    /// As for [`Self::append`].
    fn remove(&mut self, path: &str) -> Result<(), StorageError>;

    /// Atomically renames `src` onto `dst`, replacing `dst` if it exists (directory op:
    /// durable after [`Self::sync_dir`]).
    ///
    /// # Errors
    ///
    /// As for [`Self::append`].
    fn rename(&mut self, src: &str, dst: &str) -> Result<(), StorageError>;

    /// fsyncs the directory: every create / rename / remove so far becomes durable.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] / [`StorageError::Crashed`].
    fn sync_dir(&mut self) -> Result<(), StorageError>;

    /// Sorted list of existing files whose names start with `prefix`.
    fn list(&self, prefix: &str) -> Vec<String>;

    /// Syscall boundaries crossed so far (mutating and syncing operations; reads and
    /// metadata probes are free). The crash sweep's axis.
    fn op_count(&self) -> u64;
}

/// When a journal writer fsyncs. The policy is a pure decision function over appends and a
/// caller-supplied clock, so the same discipline runs identically over [`FileBackend`],
/// [`SimDisk`] and the fault harness's deterministic time.
///
/// What survives a power loss, by policy (a process crash without power loss keeps
/// everything flushed regardless):
///
/// | policy | guarantees | may lose |
/// |---|---|---|
/// | `Always` | every acknowledged record | nothing acknowledged |
/// | `EveryN(n)` | records up to the last group boundary | up to `n − 1` trailing records |
/// | `IntervalUs(us)` | records synced ≤ `us` ago | the last `us` microseconds of records |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every record: an acknowledged record is a durable record.
    Always,
    /// Group commit by count: fsync after every `n` appended records (and at rotation or
    /// an explicit sync). `EveryN(1)` is `Always`; large `n` approximates "never".
    EveryN(u64),
    /// Group commit by time: fsync when at least this many microseconds have passed since
    /// the last sync, measured on the caller's clock at append time.
    IntervalUs(u64),
}

impl SyncPolicy {
    /// Whether a writer should fsync now, given the records appended since the last sync
    /// (this append included) and the caller's clock.
    pub fn should_sync(self, appends_since_sync: u64, last_sync_us: u64, now_us: u64) -> bool {
        match self {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => appends_since_sync >= n.max(1),
            SyncPolicy::IntervalUs(us) => now_us.saturating_sub(last_sync_us) >= us,
        }
    }
}

/// Writes `bytes` to `path` atomically *and durably* through a backend: create a temporary
/// sibling, append, flush, **fsync the temp file**, rename over `path`, **fsync the
/// directory**. This is the full discipline `rename`-based atomicity requires — skipping
/// the temp-file sync lets a power loss surface the new name pointing at torn or zero
/// bytes (the [`SimDisk`] crash sweep in `fab-lr` proves exactly that failure).
///
/// # Errors
///
/// Propagates the backend's [`StorageError`]; on error `path` is either untouched or
/// already fully replaced, never torn.
pub fn write_atomic(
    backend: &mut dyn StorageBackend,
    path: &str,
    bytes: &[u8],
) -> Result<(), StorageError> {
    let tmp = format!("{path}.tmp");
    backend.create(&tmp)?;
    backend.append(&tmp, bytes)?;
    backend.flush(&tmp)?;
    backend.sync(&tmp)?;
    backend.rename(&tmp, path)?;
    backend.sync_dir()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_policy_decisions() {
        assert!(SyncPolicy::Always.should_sync(1, 0, 0));
        assert!(!SyncPolicy::EveryN(4).should_sync(3, 0, 0));
        assert!(SyncPolicy::EveryN(4).should_sync(4, 0, 0));
        assert!(SyncPolicy::EveryN(0).should_sync(1, 0, 0), "0 clamps to 1");
        assert!(!SyncPolicy::IntervalUs(100).should_sync(9, 50, 149));
        assert!(SyncPolicy::IntervalUs(100).should_sync(1, 50, 150));
    }

    #[test]
    fn storage_error_renders_and_classifies() {
        let crash = StorageError::Crashed {
            op: "append",
            path: "seg-1.wal".into(),
        };
        assert!(crash.is_crash());
        assert!(crash.to_string().contains("crashed at append"));
        let missing = StorageError::NotFound {
            path: "x.ckpt".into(),
        };
        assert!(!missing.is_crash());
        assert!(missing.to_string().contains("not found"));
    }
}

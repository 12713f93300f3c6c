//! A deterministic disk model with the true crash surface.
//!
//! Testing durability against "the file was truncated" is not enough: a power loss can
//! drop data that was written but never fsynced, tear an individual write mid-sector, and
//! persist a *later* unsynced write while dropping an earlier one (filesystems reorder
//! dirty pages), leaving a zero-filled hole. Directory operations (create / rename /
//! remove) have their own durability: visible immediately, on disk only after the parent
//! directory is fsynced. [`SimDisk`] models exactly this, deterministically:
//!
//! * Three data tiers per file — an **application buffer** (appends before
//!   [`flush`](crate::StorageBackend::flush); always lost at a crash), **flushed units**
//!   (each `flush` emits one write unit into the "page cache"; at a crash each unit
//!   independently survives, is dropped, or is torn to a prefix), and a **synced prefix**
//!   ([`sync`](crate::StorageBackend::sync) promotes everything; synced bytes never
//!   change).
//! * A **live** and a **durable** namespace — directory ops update the live view;
//!   [`sync_dir`](crate::StorageBackend::sync_dir) copies it to the durable view. At a
//!   crash each name whose binding differs between the views independently keeps either
//!   one (a rename is atomic per name: old target or new, never a torn mixture).
//! * An **op counter** numbering every syscall boundary. [`SimDisk::arm_crash`] kills the
//!   disk immediately *before* the n-th operation: that operation and everything after it
//!   fail with [`StorageError::Crashed`], exactly like a machine losing power mid-run.
//!   Sweeping `n` over `0..op_count()` of an unarmed reference run enumerates every kill
//!   site.
//! * [`SimDisk::crash_surface`] draws a seeded post-crash disk: same seed, same surface,
//!   on every platform. Enumerating a few seeds per kill site covers drop / tear /
//!   reorder combinations without a combinatorial explosion.

use std::collections::BTreeMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use crate::{StorageBackend, StorageError};

/// One flushed-but-unsynced write: `bytes` logically live at `offset` in the file.
#[derive(Debug, Clone)]
struct WriteUnit {
    offset: usize,
    bytes: Vec<u8>,
}

/// Per-file content state across the three durability tiers.
#[derive(Debug, Clone, Default)]
struct FileData {
    /// Appends not yet flushed: lost wholesale at any crash.
    buffer: Vec<u8>,
    /// Flushed content (synced prefix + unsynced units, in write order).
    cached: Vec<u8>,
    /// Length of the durable prefix of `cached`.
    synced_len: usize,
    /// Flushed units beyond `synced_len`, individually at risk.
    units: Vec<WriteUnit>,
}

impl FileData {
    fn logical(&self) -> Vec<u8> {
        let mut out = self.cached.clone();
        out.extend_from_slice(&self.buffer);
        out
    }
}

/// What a seeded crash draw did to the unsynced state — tests assert these to prove the
/// model actually exercises loss, tearing and reordering rather than quietly keeping
/// everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashSurface {
    /// Unsynced write units dropped entirely.
    pub dropped_units: u64,
    /// Unsynced write units torn to a strict prefix.
    pub torn_units: u64,
    /// Unsynced write units that survived intact (possibly out of order relative to
    /// dropped earlier ones).
    pub survived_units: u64,
    /// Application-buffer bytes lost (never flushed; always lost).
    pub lost_buffer_bytes: u64,
    /// Directory bindings that reverted to their durable value.
    pub reverted_names: u64,
}

/// The deterministic simulated disk. See the module docs for the crash model. Never armed,
/// it is the in-memory backend: there is no other.
#[derive(Debug, Clone, Default)]
pub struct SimDisk {
    files: Vec<FileData>,
    live: BTreeMap<String, usize>,
    durable: BTreeMap<String, usize>,
    ops: u64,
    crash_at: Option<u64>,
    crashed: bool,
}

impl SimDisk {
    /// An empty, healthy disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the crash: the disk dies immediately before its `at_op`-th syscall (0-based,
    /// counted by [`StorageBackend::op_count`]). Arming with a value the run never reaches
    /// is a no-op (the sweep's "ran to completion" case).
    pub fn arm_crash(&mut self, at_op: u64) {
        self.crash_at = Some(at_op);
    }

    /// Whether the armed crash has fired.
    pub fn has_crashed(&self) -> bool {
        self.crashed
    }

    /// The syscall gate: refuses everything once crashed, fires an armed crash point, and
    /// advances the op counter.
    fn syscall(&mut self, op: &'static str, path: &str) -> Result<(), StorageError> {
        if self.crashed {
            return Err(StorageError::Crashed {
                op,
                path: path.to_string(),
            });
        }
        if self.crash_at == Some(self.ops) {
            self.crashed = true;
            return Err(StorageError::Crashed {
                op,
                path: path.to_string(),
            });
        }
        self.ops += 1;
        Ok(())
    }

    fn file_mut(&mut self, op: &'static str, path: &str) -> Result<&mut FileData, StorageError> {
        match self.live.get(path) {
            Some(&id) => Ok(&mut self.files[id]),
            None => Err(StorageError::NotFound {
                path: format!("{path} ({op})"),
            }),
        }
    }

    /// Draws the seeded post-crash state: a fresh, healthy disk holding what survived,
    /// plus a [`CrashSurface`] summary of what the draw did. Usable at any moment — it is
    /// "what would the platters hold if power failed right now".
    ///
    /// The draw: every name bound differently in the live and durable namespaces keeps
    /// either binding (independently, p = 1/2); every unsynced flushed unit survives
    /// intact (p = 1/2), is dropped, or — if it survives — is torn to a strict prefix
    /// (p = 1/4); gaps left by dropped units under surviving later ones read as zeros,
    /// exactly like a sparse file extended by an out-of-order page write-back. Synced
    /// bytes and dir-synced bindings always survive. Application buffers never do.
    pub fn crash_surface(&self, seed: u64) -> (SimDisk, CrashSurface) {
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let mut summary = CrashSurface::default();

        // Namespace draw, name by name in sorted order (determinism).
        let mut names: Vec<&String> = self.live.keys().chain(self.durable.keys()).collect();
        names.sort();
        names.dedup();
        let mut surfaced: BTreeMap<String, usize> = BTreeMap::new();
        for name in names {
            let live = self.live.get(name);
            let durable = self.durable.get(name);
            // The rng is drawn only for names whose binding was unsynced at the crash
            // (short-circuit), so adding synced files never shifts another file's draw.
            let keep = if live == durable || rng.gen_bool(0.5) {
                live
            } else {
                summary.reverted_names += 1;
                durable
            };
            if let Some(&id) = keep {
                surfaced.insert(name.clone(), id);
            }
        }

        // Content draw per referenced file id (drawn once per id so two names surfacing
        // the same file agree, like two hard links would).
        let mut contents: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        for &id in surfaced.values() {
            if contents.contains_key(&id) {
                continue;
            }
            let data = &self.files[id];
            let mut bytes = data.cached[..data.synced_len].to_vec();
            for unit in &data.units {
                if !rng.gen_bool(0.5) {
                    summary.dropped_units += 1;
                    continue;
                }
                let kept = if rng.gen_bool(0.25) && unit.bytes.len() > 1 {
                    summary.torn_units += 1;
                    rng.gen_range(1..unit.bytes.len())
                } else {
                    summary.survived_units += 1;
                    unit.bytes.len()
                };
                let end = unit.offset + kept;
                if bytes.len() < unit.offset {
                    bytes.resize(unit.offset, 0); // hole from a dropped earlier unit
                }
                if bytes.len() < end {
                    bytes.resize(end, 0);
                }
                bytes[unit.offset..end].copy_from_slice(&unit.bytes[..kept]);
            }
            summary.lost_buffer_bytes += data.buffer.len() as u64;
            contents.insert(id, bytes);
        }

        let mut disk = SimDisk::new();
        for (name, id) in surfaced {
            let file_id = disk.files.len();
            let bytes = contents[&id].clone();
            disk.files.push(FileData {
                buffer: Vec::new(),
                synced_len: bytes.len(),
                cached: bytes,
                units: Vec::new(),
            });
            disk.live.insert(name.clone(), file_id);
            disk.durable.insert(name, file_id);
        }
        (disk, summary)
    }
}

impl StorageBackend for SimDisk {
    fn create(&mut self, path: &str) -> Result<(), StorageError> {
        self.syscall("create", path)?;
        let id = self.files.len();
        self.files.push(FileData::default());
        self.live.insert(path.to_string(), id);
        Ok(())
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.syscall("append", path)?;
        let file = self.file_mut("append", path)?;
        file.buffer.extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self, path: &str) -> Result<(), StorageError> {
        self.syscall("flush", path)?;
        let file = self.file_mut("flush", path)?;
        if !file.buffer.is_empty() {
            let unit = WriteUnit {
                offset: file.cached.len(),
                bytes: std::mem::take(&mut file.buffer),
            };
            file.cached.extend_from_slice(&unit.bytes);
            file.units.push(unit);
        }
        Ok(())
    }

    fn sync(&mut self, path: &str) -> Result<(), StorageError> {
        self.syscall("sync", path)?;
        let file = self.file_mut("sync", path)?;
        // fsync implies flushing the application buffer first.
        if !file.buffer.is_empty() {
            let buffered = std::mem::take(&mut file.buffer);
            file.cached.extend_from_slice(&buffered);
        }
        file.synced_len = file.cached.len();
        file.units.clear();
        Ok(())
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, StorageError> {
        if self.crashed {
            return Err(StorageError::Crashed {
                op: "read",
                path: path.to_string(),
            });
        }
        match self.live.get(path) {
            Some(&id) => Ok(self.files[id].logical()),
            None => Err(StorageError::NotFound {
                path: path.to_string(),
            }),
        }
    }

    fn exists(&self, path: &str) -> bool {
        self.live.contains_key(path)
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        self.syscall("remove", path)?;
        if self.live.remove(path).is_none() {
            return Err(StorageError::NotFound {
                path: path.to_string(),
            });
        }
        Ok(())
    }

    fn rename(&mut self, src: &str, dst: &str) -> Result<(), StorageError> {
        self.syscall("rename", src)?;
        let Some(id) = self.live.remove(src) else {
            return Err(StorageError::NotFound {
                path: src.to_string(),
            });
        };
        self.live.insert(dst.to_string(), id);
        Ok(())
    }

    fn sync_dir(&mut self) -> Result<(), StorageError> {
        self.syscall("sync_dir", "<dir>")?;
        self.durable = self.live.clone();
        Ok(())
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.live
            .keys()
            .filter(|name| name.starts_with(prefix))
            .cloned()
            .collect()
    }

    fn op_count(&self) -> u64 {
        self.ops
    }
}

/// A cloneable handle to one [`SimDisk`]: the harness hands one clone (boxed as a
/// [`StorageBackend`]) to the component under test and keeps another to arm crash points
/// and draw the crash surface after the component "dies". All clones see the same disk.
#[derive(Debug, Clone, Default)]
pub struct SharedDisk(std::sync::Arc<std::sync::Mutex<SimDisk>>);

impl SharedDisk {
    /// A handle to a fresh, healthy disk.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SimDisk> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// See [`SimDisk::arm_crash`].
    pub fn arm_crash(&self, at_op: u64) {
        self.lock().arm_crash(at_op);
    }

    /// See [`SimDisk::has_crashed`].
    pub fn has_crashed(&self) -> bool {
        self.lock().has_crashed()
    }

    /// A deep copy of the disk's current state.
    pub fn snapshot(&self) -> SimDisk {
        self.lock().clone()
    }

    /// See [`SimDisk::crash_surface`].
    pub fn crash_surface(&self, seed: u64) -> (SimDisk, CrashSurface) {
        self.lock().crash_surface(seed)
    }
}

impl StorageBackend for SharedDisk {
    fn create(&mut self, path: &str) -> Result<(), StorageError> {
        self.lock().create(path)
    }
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.lock().append(path, bytes)
    }
    fn flush(&mut self, path: &str) -> Result<(), StorageError> {
        self.lock().flush(path)
    }
    fn sync(&mut self, path: &str) -> Result<(), StorageError> {
        self.lock().sync(path)
    }
    fn read(&mut self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.lock().read(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.lock().exists(path)
    }
    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        self.lock().remove(path)
    }
    fn rename(&mut self, src: &str, dst: &str) -> Result<(), StorageError> {
        self.lock().rename(src, dst)
    }
    fn sync_dir(&mut self) -> Result<(), StorageError> {
        self.lock().sync_dir()
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.lock().list(prefix)
    }
    fn op_count(&self) -> u64 {
        self.lock().op_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_disciplined(disk: &mut SimDisk, path: &str, bytes: &[u8]) {
        disk.create(path).unwrap();
        disk.append(path, bytes).unwrap();
        disk.flush(path).unwrap();
        disk.sync(path).unwrap();
        disk.sync_dir().unwrap();
    }

    #[test]
    fn synced_bytes_survive_every_seed() {
        let mut disk = SimDisk::new();
        write_disciplined(&mut disk, "a.log", b"durable");
        disk.append("a.log", b" buffered-only").unwrap();
        for seed in 0..64 {
            let (surface, summary) = disk.crash_surface(seed);
            let mut surface = surface;
            assert_eq!(surface.read("a.log").unwrap(), b"durable");
            assert_eq!(summary.lost_buffer_bytes, b" buffered-only".len() as u64);
        }
    }

    #[test]
    fn unsynced_units_drop_tear_and_reorder() {
        let mut disk = SimDisk::new();
        write_disciplined(&mut disk, "a.log", b"SYNCED");
        for unit in [b"AAAA".as_slice(), b"BBBB", b"CCCC"] {
            disk.append("a.log", unit).unwrap();
            disk.flush("a.log").unwrap();
        }
        let mut saw_drop = false;
        let mut saw_tear = false;
        let mut saw_reorder = false;
        for seed in 0..256 {
            let (mut surface, summary) = disk.crash_surface(seed);
            let bytes = surface.read("a.log").unwrap();
            assert!(bytes.starts_with(b"SYNCED"), "synced prefix immutable");
            saw_drop |= summary.dropped_units > 0;
            saw_tear |= summary.torn_units > 0;
            // Reorder: a later unit survived over a dropped earlier one — visible as a
            // zero-filled hole before surviving bytes.
            let tail = &bytes[b"SYNCED".len()..];
            saw_reorder |= tail.contains(&0u8) && tail.iter().any(|&b| b != 0);
        }
        assert!(saw_drop, "no seed dropped a unit");
        assert!(saw_tear, "no seed tore a unit");
        assert!(saw_reorder, "no seed reordered units");
    }

    #[test]
    fn surfaces_are_reproducible_and_seed_sensitive() {
        let mut disk = SimDisk::new();
        write_disciplined(&mut disk, "a.log", b"base");
        for i in 0..8u8 {
            disk.append("a.log", &[i; 32]).unwrap();
            disk.flush("a.log").unwrap();
        }
        let (mut a, sa) = disk.crash_surface(7);
        let (mut b, sb) = disk.crash_surface(7);
        assert_eq!(a.read("a.log").unwrap(), b.read("a.log").unwrap());
        assert_eq!(sa, sb);
        let distinct = (0..32)
            .map(|seed| disk.crash_surface(seed).0.read("a.log").unwrap())
            .collect::<std::collections::BTreeSet<_>>();
        assert!(distinct.len() > 1, "seeds must vary the surface");
    }

    #[test]
    fn unsynced_rename_may_revert_but_never_tears_a_name() {
        let mut disk = SimDisk::new();
        write_disciplined(&mut disk, "ckpt", b"OLD");
        disk.create("ckpt.tmp").unwrap();
        disk.append("ckpt.tmp", b"NEW!").unwrap();
        disk.flush("ckpt.tmp").unwrap();
        disk.sync("ckpt.tmp").unwrap();
        disk.rename("ckpt.tmp", "ckpt").unwrap(); // no sync_dir: at risk
        let mut saw_old = false;
        let mut saw_new = false;
        for seed in 0..64 {
            let (mut surface, _) = disk.crash_surface(seed);
            let bytes = surface.read("ckpt").expect("the name always resolves");
            match bytes.as_slice() {
                b"OLD" => saw_old = true,
                b"NEW!" => saw_new = true,
                other => panic!("torn name: {other:?}"),
            }
        }
        assert!(saw_old && saw_new, "both rename outcomes must be drawable");

        // After sync_dir the rename is pinned.
        disk.sync_dir().unwrap();
        for seed in 0..16 {
            let (mut surface, _) = disk.crash_surface(seed);
            assert_eq!(surface.read("ckpt").unwrap(), b"NEW!");
        }
    }

    #[test]
    fn armed_crash_fires_at_the_exact_op_and_latches() {
        let mut reference = SimDisk::new();
        write_disciplined(&mut reference, "a.log", b"x");
        let total = reference.op_count();
        assert_eq!(total, 5, "create+append+flush+sync+sync_dir");

        for at in 0..total {
            let mut disk = SimDisk::new();
            disk.arm_crash(at);
            let mut steps = 0u64;
            let result = (|| -> Result<(), StorageError> {
                disk.create("a.log")?;
                steps += 1;
                disk.append("a.log", b"x")?;
                steps += 1;
                disk.flush("a.log")?;
                steps += 1;
                disk.sync("a.log")?;
                steps += 1;
                disk.sync_dir()?;
                steps += 1;
                Ok(())
            })();
            assert!(result.unwrap_err().is_crash());
            assert_eq!(steps, at, "crash must fire before op {at}");
            assert!(disk.has_crashed());
            assert!(disk.append("a.log", b"y").unwrap_err().is_crash());
            assert!(disk.read("a.log").unwrap_err().is_crash());
        }

        // Arming past the end never fires.
        let mut disk = SimDisk::new();
        disk.arm_crash(total);
        write_disciplined(&mut disk, "a.log", b"x");
        assert!(!disk.has_crashed());
    }

    #[test]
    fn create_truncates_visibly_but_old_durable_content_can_resurface() {
        let mut disk = SimDisk::new();
        write_disciplined(&mut disk, "a.log", b"OLD");
        disk.create("a.log").unwrap(); // recreate, no sync_dir yet
        disk.append("a.log", b"N").unwrap();
        assert_eq!(disk.read("a.log").unwrap(), b"N");
        let mut outcomes = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let (mut surface, _) = disk.crash_surface(seed);
            outcomes.insert(surface.read("a.log").unwrap());
        }
        assert!(
            outcomes.contains(b"OLD".as_slice()),
            "durable binding survives some draws"
        );
    }
}

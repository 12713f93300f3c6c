//! The durable, segmented request journal: fsync-disciplined segments over a
//! [`StorageBackend`], with checkpoint-truncated compaction.
//!
//! # Layout
//!
//! The journal is a sequence of flat files in one directory:
//!
//! ```text
//! cpt-00000007.wal     compacted base: header · retained records · Checkpoint marker
//! seg-00000008.wal     sealed segment: fully fsynced before seg-9 was created
//! seg-00000009.wal     active segment: appends go here, tail governed by the SyncPolicy
//! ```
//!
//! Each file is a journal byte log as [`crate::journal`] defines it (length-prefixed
//! validated records, first record a fingerprinted header). Sequence numbers are global and strictly
//! increasing across both name families; the journal's record stream is the base `cpt`
//! file (if any) followed by every `seg` file with a higher sequence, in order.
//!
//! # Rotation
//!
//! When the active segment reaches `rotate_after_records`, it is fsynced (sealed) and a
//! new segment is created, headered, fsynced, and pinned with a directory fsync. Because
//! the old segment's fsync strictly precedes the new segment's creation, **any segment
//! other than the last is durable in full**: recovery opens sealed segments strictly (any
//! damage there is bit rot, a typed [`CorruptJournal`]) and only the active segment
//! leniently (its unsynced tail is the one place a power loss can legally tear, hole, or
//! reorder bytes — see [`RecoveredJournal::open_lenient`]).
//!
//! # Compaction
//!
//! The journal grows without bound unless settled requests are folded away. Compaction
//! reads the whole record stream, folds it per request ([`fold_requests`] — the same fold
//! recovery settles and re-admits from) and retains only what recovery needs — the
//! single outcome record for settled requests (dropping their `Admitted` records and the
//! embedded input ciphertexts, which is where the space goes), `Admitted` (+ one
//! `Started`) for in-flight ones — and writes it to a fresh `cpt` file whose **last**
//! record is a [`JournalRecord::Checkpoint`] marker, written and fsynced only after every
//! retained record is. A complete trailing marker therefore *proves* the compaction
//! finished; the files it folded are removed only after the marker and the directory are
//! synced. A crash anywhere in between leaves either the old files authoritative (the
//! marker-less `cpt` is ignored and cleaned up) or the new `cpt` authoritative (leftover
//! old files are ignored and cleaned up) — never both, never neither.
//!
//! Recovery itself compacts: after folding the surviving stream it writes a fresh `cpt` +
//! active segment and removes everything else, so damaged tails never linger into a
//! second crash.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use fab_ckks::wire;
use fab_ckks::CkksContext;
use fab_store::{StorageBackend, StorageError, SyncPolicy};

use crate::error::RequestId;
use crate::journal::{
    fold_requests, CorruptJournal, JournalRecord, RecoveredJournal, RequestState,
};

/// A durable-journal failure: either the storage layer failed (or simulated-crashed), or
/// fully durable bytes failed validation (bit rot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The storage backend failed; [`StorageError::is_crash`] distinguishes a simulated
    /// power loss from a real I/O fault.
    Storage(StorageError),
    /// Durable journal bytes failed validation — bit rot or a writer bug, never legal
    /// crash damage (that is truncated leniently in the active segment's unsynced tail).
    Corrupt(CorruptJournal),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Storage(e) => write!(f, "journal storage failed: {e}"),
            StoreError::Corrupt(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<StorageError> for StoreError {
    fn from(e: StorageError) -> Self {
        StoreError::Storage(e)
    }
}

impl From<CorruptJournal> for StoreError {
    fn from(e: CorruptJournal) -> Self {
        StoreError::Corrupt(e)
    }
}

const SEG_PREFIX: &str = "seg-";
const CPT_PREFIX: &str = "cpt-";
const WAL_SUFFIX: &str = ".wal";

fn seg_name(seq: u64) -> String {
    format!("{SEG_PREFIX}{seq:08}{WAL_SUFFIX}")
}

fn cpt_name(seq: u64) -> String {
    format!("{CPT_PREFIX}{seq:08}{WAL_SUFFIX}")
}

fn parse_seq(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(WAL_SUFFIX)?
        .parse()
        .ok()
}

/// What [`DurableJournal::recover`] rebuilt from a (possibly crash-surfaced) backend.
#[derive(Debug)]
pub struct RecoveredStore {
    /// The journal, already re-compacted onto a fresh base + active segment.
    pub journal: DurableJournal,
    /// The surviving record stream folded per request — what the fresh base was written
    /// from, and what [`crate::FabServer::recover_from_store`] settles and re-admits from.
    pub requests: BTreeMap<RequestId, RequestState>,
    /// Bytes dropped from the active segment's damaged unsynced tail.
    pub discarded_bytes: usize,
    /// Files (base + segments) that contributed records.
    pub files_folded: usize,
}

/// The fsync-disciplined, segmented, compactable journal writer. See the module docs for
/// the layout and crash protocol.
#[derive(Debug)]
pub struct DurableJournal {
    ctx: Arc<CkksContext>,
    backend: Box<dyn StorageBackend + Send>,
    policy: SyncPolicy,
    rotate_after_records: u64,
    /// Sequence number of the active segment.
    seq: u64,
    /// Records in the active segment, header excluded.
    records_in_segment: u64,
    appends_since_sync: u64,
    last_sync_us: u64,
}

impl DurableJournal {
    /// Creates a fresh journal on an empty backend: segment 0 is created, headered,
    /// fsynced and pinned. For a backend holding a previous journal, use
    /// [`Self::recover`] instead — `create` would shadow the old state, not resume it.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn create(
        backend: Box<dyn StorageBackend + Send>,
        ctx: Arc<CkksContext>,
        policy: SyncPolicy,
        rotate_after_records: u64,
    ) -> Result<Self, StorageError> {
        let mut journal = Self {
            ctx,
            backend,
            policy,
            rotate_after_records: rotate_after_records.max(1),
            seq: 0,
            records_in_segment: 0,
            appends_since_sync: 0,
            last_sync_us: 0,
        };
        journal.start_segment(0)?;
        Ok(journal)
    }

    /// The active segment's file name.
    pub fn active_segment(&self) -> String {
        seg_name(self.seq)
    }

    /// Journal files currently on the backend (base + segments), sorted.
    pub fn files(&self) -> Vec<String> {
        let mut files = self.backend.list(CPT_PREFIX);
        files.extend(self.backend.list(SEG_PREFIX));
        files.sort();
        files
    }

    /// Total journal bytes currently on the backend across every file.
    ///
    /// # Errors
    ///
    /// Propagates backend read failures.
    pub fn bytes_on_disk(&mut self) -> Result<u64, StorageError> {
        let mut total = 0u64;
        for name in self.files() {
            total += self.backend.read(&name)?.len() as u64;
        }
        Ok(total)
    }

    /// Creates, headers, fsyncs and pins segment `seq`, making it the active segment.
    fn start_segment(&mut self, seq: u64) -> Result<(), StorageError> {
        let name = seg_name(seq);
        let header = JournalRecord::Header {
            fingerprint: wire::param_fingerprint(self.ctx.params()),
        }
        .to_framed_bytes(&self.ctx);
        self.backend.create(&name)?;
        self.backend.append(&name, &header)?;
        self.backend.flush(&name)?;
        self.backend.sync(&name)?;
        self.backend.sync_dir()?;
        self.seq = seq;
        self.records_in_segment = 0;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Appends one record to the active segment under the sync policy, rotating when the
    /// segment is full. Every record is flushed (one write unit — a process crash never
    /// loses it); whether it is *fsynced* is the policy's call.
    ///
    /// # Errors
    ///
    /// Propagates backend failures; after an error the writer must be treated as dead
    /// (the server latches its crashed flag).
    pub fn append(&mut self, record: &JournalRecord, now_us: u64) -> Result<(), StorageError> {
        let active = seg_name(self.seq);
        let framed = record.to_framed_bytes(&self.ctx);
        self.backend.append(&active, &framed)?;
        self.backend.flush(&active)?;
        self.records_in_segment += 1;
        self.appends_since_sync += 1;
        if self
            .policy
            .should_sync(self.appends_since_sync, self.last_sync_us, now_us)
        {
            self.sync_now(now_us)?;
        }
        if self.records_in_segment >= self.rotate_after_records {
            self.rotate(now_us)?;
        }
        Ok(())
    }

    /// fsyncs the active segment now (group commit; also the end-of-run barrier).
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn sync_now(&mut self, now_us: u64) -> Result<(), StorageError> {
        let active = seg_name(self.seq);
        self.backend.sync(&active)?;
        self.appends_since_sync = 0;
        self.last_sync_us = now_us;
        Ok(())
    }

    /// Seals the active segment (fsync) and starts the next one. The seal strictly
    /// precedes the successor's creation, which is what entitles recovery to open every
    /// non-final segment strictly.
    fn rotate(&mut self, now_us: u64) -> Result<(), StorageError> {
        self.sync_now(now_us)?;
        self.start_segment(self.seq + 1)
    }

    /// Compacts the journal: folds the full record stream, retains only what recovery
    /// needs, writes it to a fresh marker-sealed `cpt` base plus a fresh active segment,
    /// and removes every older file. Settled requests shrink to their single outcome
    /// record; in-flight ones keep `Admitted` (+ one `Started`).
    ///
    /// # Errors
    ///
    /// [`StoreError::Storage`] on backend failure; [`StoreError::Corrupt`] if the
    /// journal's own durable files fail validation (bit rot under a live writer).
    pub fn compact(&mut self, now_us: u64) -> Result<(), StoreError> {
        // Make the in-memory tail visible to the fold before reading it back.
        self.sync_now(now_us)?;
        self.rebase(false)?;
        self.last_sync_us = now_us;
        Ok(())
    }

    /// The one way the journal's files are replaced: reads the record stream back, folds it
    /// per request, writes what recovery needs of it to a fresh base, starts a fresh active
    /// segment after it and removes every other file. `crashed` selects how damage in the
    /// files read is judged (see [`collect_stream`]).
    fn rebase(&mut self, crashed: bool) -> Result<Stream, StoreError> {
        let stream = collect_stream(self.backend.as_mut(), &self.ctx, crashed)?;
        let base_seq = stream.max_seq.map_or(0, |s| s + 1);
        self.write_base(base_seq, &stream.requests)?;
        // start_segment's directory fsync pins the new base and segment together.
        self.start_segment(base_seq + 1)?;
        self.remove_all_but(&[cpt_name(base_seq), seg_name(base_seq + 1)])?;
        Ok(stream)
    }

    /// Writes a compacted base file: header, the records retained of `requests`, fsync, then
    /// the [`JournalRecord::Checkpoint`] marker, fsync again. The marker is durable only
    /// after everything it vouches for is.
    ///
    /// Retention, per request in id order (recovery is insensitive to the order): a settled
    /// request keeps only its outcome record — its `Admitted` record, and the input
    /// ciphertext inside it, is the space compaction reclaims; an in-flight request keeps
    /// `Admitted` and, if execution had begun, one `Started`.
    fn write_base(
        &mut self,
        seq: u64,
        requests: &BTreeMap<RequestId, RequestState>,
    ) -> Result<(), StorageError> {
        let name = cpt_name(seq);
        self.backend.create(&name)?;
        let header = JournalRecord::Header {
            fingerprint: wire::param_fingerprint(self.ctx.params()),
        };
        self.backend
            .append(&name, &header.to_framed_bytes(&self.ctx))?;
        let mut retained = 0u64;
        for (&request, state) in requests {
            let Some(record) = state.deciding_record() else {
                continue;
            };
            self.backend
                .append(&name, &record.to_framed_bytes(&self.ctx))?;
            retained += 1;
            if state.outcome.is_none() && state.starts > 0 {
                let started = JournalRecord::Started { request };
                self.backend
                    .append(&name, &started.to_framed_bytes(&self.ctx))?;
                retained += 1;
            }
        }
        self.backend.flush(&name)?;
        self.backend.sync(&name)?;
        let marker = JournalRecord::Checkpoint { retained };
        self.backend
            .append(&name, &marker.to_framed_bytes(&self.ctx))?;
        self.backend.flush(&name)?;
        self.backend.sync(&name)
    }

    /// Removes every journal file except `keep`, then fsyncs the directory.
    fn remove_all_but(&mut self, keep: &[String]) -> Result<(), StorageError> {
        let mut removed = 0u64;
        for name in self.files() {
            if !keep.contains(&name) {
                self.backend.remove(&name)?;
                removed += 1;
            }
        }
        if removed > 0 {
            self.backend.sync_dir()?;
        }
        Ok(())
    }

    /// Recovers a journal from a backend a crash (real or simulated) left behind: selects
    /// the newest marker-complete base, strictly opens every sealed segment, leniently
    /// opens the active one, folds the surviving stream — then re-compacts it onto a
    /// fresh base + active segment and removes everything stale, so the recovered journal
    /// starts clean no matter how dirty the surface was.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when fully durable bytes fail validation (bit rot in a
    /// sealed segment or a sole base file); [`StoreError::Storage`] on backend failure.
    /// Legal crash damage — torn/held-back tails in the active segment, interrupted
    /// compactions or rotations — is never an error.
    pub fn recover(
        backend: Box<dyn StorageBackend + Send>,
        ctx: Arc<CkksContext>,
        policy: SyncPolicy,
        rotate_after_records: u64,
    ) -> Result<RecoveredStore, StoreError> {
        let mut journal = Self {
            ctx,
            backend,
            policy,
            rotate_after_records: rotate_after_records.max(1),
            seq: 0,
            records_in_segment: 0,
            appends_since_sync: 0,
            last_sync_us: 0,
        };
        let stream = journal.rebase(true)?;
        Ok(RecoveredStore {
            journal,
            requests: stream.requests,
            discarded_bytes: stream.discarded_bytes,
            files_folded: stream.files_folded,
        })
    }
}

/// The journal stream read back off a backend, folded per request.
struct Stream {
    /// Per-request lifecycle state of every record read.
    requests: BTreeMap<RequestId, RequestState>,
    /// Bytes dropped from damaged unsynced tails (crashed surfaces only).
    discarded_bytes: usize,
    /// Files that contributed records.
    files_folded: usize,
    /// Highest sequence number seen across every journal file, valid or not.
    max_seq: Option<u64>,
}

/// Reads the record stream — newest marker-complete base, then each later segment in
/// order — and folds it per request. `crashed` selects the crash-surface rules (lenient final segment, interrupted
/// compactions tolerated); a live writer's own read-back (`crashed == false`) expects
/// every file clean and surfaces any damage as corruption.
fn collect_stream(
    backend: &mut (dyn StorageBackend + Send),
    ctx: &CkksContext,
    crashed: bool,
) -> Result<Stream, StoreError> {
    let mut cpt_seqs: Vec<u64> = backend
        .list(CPT_PREFIX)
        .iter()
        .filter_map(|n| parse_seq(n, CPT_PREFIX))
        .collect();
    let mut seg_seqs: Vec<u64> = backend
        .list(SEG_PREFIX)
        .iter()
        .filter_map(|n| parse_seq(n, SEG_PREFIX))
        .collect();
    cpt_seqs.sort_unstable();
    seg_seqs.sort_unstable();
    let max_seq = cpt_seqs.iter().chain(seg_seqs.iter()).max().copied();

    // Select the base: the newest cpt whose trailing Checkpoint marker is complete and
    // matches its record count. A cpt failing that test is an interrupted compaction —
    // legal only while the files it was folding still exist (they are removed strictly
    // after the marker is durable); with no older coverage it can only be bit rot.
    let mut base: Option<(u64, Vec<JournalRecord>)> = None;
    for &seq in cpt_seqs.iter().rev() {
        let bytes = backend.read(&cpt_name(seq))?;
        let opened = RecoveredJournal::open(&bytes, ctx);
        let complete = match &opened {
            Ok(rec) => {
                rec.torn_bytes == 0
                    && matches!(
                        rec.records.last(),
                        Some(JournalRecord::Checkpoint { retained })
                            if *retained as usize == rec.records.len() - 1
                    )
            }
            Err(_) => false,
        };
        if complete {
            let mut records = opened.expect("checked Ok above").records;
            records.pop(); // the marker itself carries no state
            base = Some((seq, records));
            break;
        }
        let older_coverage = cpt_seqs.iter().any(|&o| o < seq) || seg_seqs.iter().any(|&o| o < seq);
        if !(crashed && older_coverage) {
            return Err(StoreError::Corrupt(match opened {
                Err(e) => e,
                Ok(_) => CorruptJournal {
                    offset: bytes.len(),
                    reason: format!(
                        "compacted base {} has no complete trailing checkpoint marker and \
                         nothing older covers it",
                        cpt_name(seq)
                    ),
                },
            }));
        }
        // Interrupted compaction: ignore, fold from the older files instead.
    }

    let base_seq = base.as_ref().map(|(seq, _)| *seq);
    let mut records = base.map(|(_, records)| records).unwrap_or_default();
    let mut files_folded = usize::from(base_seq.is_some());
    let mut discarded_bytes = 0usize;

    let relevant: Vec<u64> = seg_seqs
        .iter()
        .copied()
        .filter(|&s| match base_seq {
            Some(b) => s > b,
            None => true,
        })
        .collect();
    for (i, &seq) in relevant.iter().enumerate() {
        let name = seg_name(seq);
        let bytes = backend.read(&name)?;
        let is_last = i + 1 == relevant.len();
        let opened = if crashed && is_last {
            // The active segment: its unsynced tail is the one place legal crash damage
            // (tears, holes, reordering) can live. First invalid record ends the log.
            RecoveredJournal::open_lenient(&bytes, ctx)?
        } else {
            // Sealed (or live-writer) segment: fully fsynced before its successor was
            // created, so every byte is durable and any damage is bit rot.
            let opened = RecoveredJournal::open(&bytes, ctx)?;
            if opened.torn_bytes > 0 {
                return Err(StoreError::Corrupt(CorruptJournal {
                    offset: bytes.len() - opened.torn_bytes,
                    reason: format!("sealed segment {name} is truncated mid-record"),
                }));
            }
            opened
        };
        discarded_bytes += opened.torn_bytes;
        records.extend(opened.records);
        files_folded += 1;
    }
    Ok(Stream {
        requests: fold_requests(records),
        discarded_bytes,
        files_folded,
        max_seq,
    })
}

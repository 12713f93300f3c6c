//! The write-ahead request journal: durable admit/start/complete/fail transitions.
//!
//! A process crash must not lose the serving queue. The journal is an append-only sequence
//! of length-prefixed records, each an independently validated blob on the shared
//! [`fab_ckks::wire`] codec (magic/version word, word-parallel checksum: any damage confined
//! to one aligned 8-byte word is always caught, wider damage with probability 1 − 2⁻⁶⁴), so
//! every record a crash could leave behind is either provably intact or typed-rejected —
//! never trusted half-read:
//!
//! ```text
//! [u64 LE record length][FABJNL record blob] [u64 LE record length][FABJNL record blob] …
//!
//! record blob:  magic|version · checksum · kind word · kind-specific fields
//! ```
//!
//! The first record is always [`JournalRecord::Header`], carrying the writing context's
//! parameter fingerprint; a journal opened under different parameters fails typed instead of
//! decoding garbage ciphertexts. [`JournalRecord::Admitted`] embeds the request's full
//! program and input ciphertext (as a validated `FABCTX` snapshot), which is what makes
//! replay possible; [`JournalRecord::Completed`] embeds the output, which is what makes
//! *not* replaying possible.
//!
//! This module is the journal's *format*: the record codec ([`JournalRecord`], whose
//! [`JournalRecord::to_framed_bytes`] is the one place a record is framed), the log decoder
//! ([`RecoveredJournal::open`] / [`RecoveredJournal::open_lenient`]) and the per-request
//! lifecycle fold ([`fold_requests`]) that recovery and compaction both read a record stream
//! through. It appends nothing: the only writer is [`crate::DurableJournal`], over a
//! [`fab_store::StorageBackend`].
//!
//! [`RecoveredJournal::open`] distinguishes the two corruption regimes a crash model cares
//! about:
//!
//! * **Torn tail** — the write was cut mid-record (short length prefix, or a declared length
//!   overrunning the buffer). Every complete record before the tear is recovered; the torn
//!   bytes are dropped and reported. This is the only damage an append-only writer's crash
//!   can cause, so truncation at *any* byte offset recovers a clean prefix.
//! * **Mid-stream corruption** — a complete record fails its checksum, carries an unknown
//!   kind, or embeds an invalid snapshot. That is not a crash artifact but bit rot (or a
//!   bug), and it surfaces as a typed [`CorruptJournal`] with the failing byte offset —
//!   never a panic, never a fabricated record.
//!
//! A third case is neither: a complete, well-framed record whose magic is `FABJNL` but whose
//! **format version** is not this build's (version 1 carried a byte-serial checksum; version 2
//! is the current one). No crash produces that — the log was written by another build — so
//! it fails typed in both [`RecoveredJournal::open`] and [`RecoveredJournal::open_lenient`]
//! instead of being "recovered" as an empty journal with everything counted as torn.

use std::collections::BTreeMap;
use std::fmt;

use fab_ckks::wire::{self, BlobReader, BlobSpec, BlobWriter};
use fab_ckks::{Ciphertext, CkksContext};

use crate::error::{FaultClass, RequestId};
use crate::request::{Program, ServeOp};
use crate::tenant::TenantId;

/// Journal-record blob identity: ASCII `FABJNL` in the top 48 bits. Version 2 is the
/// [`wire::checksum`] format; segments and compaction bases are streams of these records.
const JOURNAL_SPEC: BlobSpec = BlobSpec {
    magic: 0x4641_424A_4E4C_0000,
    version: 2,
    kind: "journal record",
};

/// A structurally complete record failed validation — bit rot or a writer bug, not a torn
/// tail (tears are truncated silently and reported as [`RecoveredJournal::torn_bytes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptJournal {
    /// Byte offset of the record that failed.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for CorruptJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corrupt journal at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for CorruptJournal {}

/// One durable state transition. The lifecycle of a request in the journal is
/// `Admitted → Started → (Completed | Failed)`, or `Shed` at submission; a request whose
/// last record is `Admitted`/`Started` was in flight when the process died.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// First record of every journal: the writing context's parameter fingerprint.
    Header {
        /// [`wire::param_fingerprint`] of the writing context.
        fingerprint: u64,
    },
    /// A request entered the queue. Embeds everything replay needs.
    Admitted {
        /// The admitted request.
        request: RequestId,
        /// The submitting tenant.
        tenant: TenantId,
        /// Submission timestamp (the writing process's serve clock).
        submitted_us: u64,
        /// The program to execute.
        program: Program,
        /// The encrypted input.
        input: Ciphertext,
    },
    /// A request was rejected at submission by the bounded queue.
    Shed {
        /// The shed request.
        request: RequestId,
        /// The submitting tenant.
        tenant: TenantId,
        /// Queue depth at the moment of shedding.
        queue_depth: u64,
    },
    /// The server picked the request up for execution.
    Started {
        /// The request being executed.
        request: RequestId,
    },
    /// The request completed; embeds the output so recovery never re-executes it.
    Completed {
        /// The completed request.
        request: RequestId,
        /// The served tenant.
        tenant: TenantId,
        /// Microseconds queued, warming the cache, executing, and end-to-end.
        timings_us: [u64; 4],
        /// Ops in the program.
        ops: u64,
        /// Demand key accesses during execution.
        key_accesses: u64,
        /// The program's output ciphertext.
        output: Ciphertext,
    },
    /// The request failed with a classified, attributed error.
    Failed {
        /// The failed request.
        request: RequestId,
        /// The tenant whose request failed.
        tenant: TenantId,
        /// Transient/permanent classification of the fault.
        class: FaultClass,
        /// The rendered fault description.
        description: String,
    },
    /// Trailing marker of a compacted segment (see `crate::store`): written *last*, after
    /// every retained record is synced, so its presence proves the compaction completed.
    /// A compacted segment without this marker at its end is an interrupted compaction and
    /// is ignored while the segments it was folding still exist.
    Checkpoint {
        /// Records retained in the compacted segment (header and this marker excluded) —
        /// an integrity cross-check against the actual record count.
        retained: u64,
    },
}

/// Record kind words (first field word of every record blob).
mod kind {
    pub const HEADER: u64 = 0;
    pub const ADMITTED: u64 = 1;
    pub const SHED: u64 = 2;
    pub const STARTED: u64 = 3;
    pub const COMPLETED: u64 = 4;
    pub const FAILED: u64 = 5;
    pub const CHECKPOINT: u64 = 6;
}

/// Op encoding tags inside `Admitted` records.
mod op_tag {
    pub const SQUARE: u64 = 0;
    pub const ROTATE: u64 = 1;
    pub const CONJUGATE: u64 = 2;
    pub const ADD_SELF: u64 = 3;
}

fn encode_program(out: &mut BlobWriter, program: &Program) {
    out.push_word(program.len() as u64);
    for op in program.ops() {
        let (tag, operand) = match *op {
            ServeOp::Square => (op_tag::SQUARE, 0),
            ServeOp::Rotate(steps) => (op_tag::ROTATE, steps as u64),
            ServeOp::Conjugate => (op_tag::CONJUGATE, 0),
            ServeOp::AddSelf => (op_tag::ADD_SELF, 0),
        };
        out.push_word(tag);
        out.push_word(operand);
    }
}

fn decode_program(reader: &mut BlobReader<'_>) -> Result<Program, wire::WireError> {
    let len = reader.read_word()? as usize;
    // Each op is two words; reject a length the remaining payload cannot hold before
    // allocating (checked math — a rotten length word must not drive a huge reservation).
    let needed = wire::checked_product(&[len, 16])
        .ok_or_else(|| wire::WireError::corrupt(format!("program length {len} overflows")))?;
    if reader.remaining() < needed {
        return Err(wire::WireError::corrupt(format!(
            "program of {len} ops needs {needed} bytes, {} remain",
            reader.remaining()
        )));
    }
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let tag = reader.read_word()?;
        let operand = reader.read_word()?;
        // Exactly what `encode_program` writes and nothing else, so that a decoded program
        // re-encodes to the bytes it was read from: operand-less ops carry a zero operand.
        ops.push(match (tag, operand) {
            (op_tag::SQUARE, 0) => ServeOp::Square,
            (op_tag::ROTATE, steps) => ServeOp::Rotate(usize::try_from(steps).map_err(|_| {
                wire::WireError::corrupt(format!("rotation by {steps} overflows usize"))
            })?),
            (op_tag::CONJUGATE, 0) => ServeOp::Conjugate,
            (op_tag::ADD_SELF, 0) => ServeOp::AddSelf,
            (tag, operand) => {
                return Err(wire::WireError::corrupt(format!(
                    "unknown program op: tag {tag}, operand {operand}"
                )))
            }
        });
    }
    Ok(Program::new(ops))
}

fn encode_class(class: FaultClass) -> u64 {
    match class {
        FaultClass::Transient => 0,
        FaultClass::Permanent => 1,
    }
}

fn decode_class(word: u64) -> Result<FaultClass, wire::WireError> {
    match word {
        0 => Ok(FaultClass::Transient),
        1 => Ok(FaultClass::Permanent),
        other => Err(wire::WireError::corrupt(format!(
            "unknown fault class {other}"
        ))),
    }
}

impl JournalRecord {
    fn encode(&self, ctx: &CkksContext) -> Vec<u8> {
        let mut out = BlobWriter::new(JOURNAL_SPEC, 64);
        match self {
            JournalRecord::Header { fingerprint } => {
                out.push_word(kind::HEADER);
                out.push_word(*fingerprint);
            }
            JournalRecord::Admitted {
                request,
                tenant,
                submitted_us,
                program,
                input,
            } => {
                out.push_word(kind::ADMITTED);
                out.push_word(request.0);
                out.push_word(tenant.0 as u64);
                out.push_word(*submitted_us);
                encode_program(&mut out, program);
                out.push_blob(&input.to_bytes(ctx));
            }
            JournalRecord::Shed {
                request,
                tenant,
                queue_depth,
            } => {
                out.push_word(kind::SHED);
                out.push_word(request.0);
                out.push_word(tenant.0 as u64);
                out.push_word(*queue_depth);
            }
            JournalRecord::Started { request } => {
                out.push_word(kind::STARTED);
                out.push_word(request.0);
            }
            JournalRecord::Completed {
                request,
                tenant,
                timings_us,
                ops,
                key_accesses,
                output,
            } => {
                out.push_word(kind::COMPLETED);
                out.push_word(request.0);
                out.push_word(tenant.0 as u64);
                out.push_words(timings_us);
                out.push_word(*ops);
                out.push_word(*key_accesses);
                out.push_blob(&output.to_bytes(ctx));
            }
            JournalRecord::Failed {
                request,
                tenant,
                class,
                description,
            } => {
                out.push_word(kind::FAILED);
                out.push_word(request.0);
                out.push_word(tenant.0 as u64);
                out.push_word(encode_class(*class));
                out.push_blob(description.as_bytes());
            }
            JournalRecord::Checkpoint { retained } => {
                out.push_word(kind::CHECKPOINT);
                out.push_word(*retained);
            }
        }
        out.finish()
    }

    fn decode(bytes: &[u8], ctx: &CkksContext) -> Result<Self, wire::WireError> {
        let mut reader = BlobReader::open(JOURNAL_SPEC, bytes)?;
        let record = match reader.read_word()? {
            kind::HEADER => JournalRecord::Header {
                fingerprint: reader.read_word()?,
            },
            kind::ADMITTED => {
                let request = RequestId(reader.read_word()?);
                let tenant = decode_tenant(reader.read_word()?)?;
                let submitted_us = reader.read_word()?;
                let program = decode_program(&mut reader)?;
                let input =
                    Ciphertext::from_bytes(reader.read_blob()?, ctx).map_err(snapshot_err)?;
                JournalRecord::Admitted {
                    request,
                    tenant,
                    submitted_us,
                    program,
                    input,
                }
            }
            kind::SHED => JournalRecord::Shed {
                request: RequestId(reader.read_word()?),
                tenant: decode_tenant(reader.read_word()?)?,
                queue_depth: reader.read_word()?,
            },
            kind::STARTED => JournalRecord::Started {
                request: RequestId(reader.read_word()?),
            },
            kind::COMPLETED => {
                let request = RequestId(reader.read_word()?);
                let tenant = decode_tenant(reader.read_word()?)?;
                let timings: Vec<u64> = reader.read_words(4)?;
                let ops = reader.read_word()?;
                let key_accesses = reader.read_word()?;
                let output =
                    Ciphertext::from_bytes(reader.read_blob()?, ctx).map_err(snapshot_err)?;
                JournalRecord::Completed {
                    request,
                    tenant,
                    timings_us: timings.try_into().expect("4 words"),
                    ops,
                    key_accesses,
                    output,
                }
            }
            kind::FAILED => {
                let request = RequestId(reader.read_word()?);
                let tenant = decode_tenant(reader.read_word()?)?;
                let class = decode_class(reader.read_word()?)?;
                // Strict, not lossy: a replacement character would decode to a record that
                // re-encodes to different bytes than were read.
                let description = String::from_utf8(reader.read_blob()?.to_vec())
                    .map_err(|e| wire::WireError::corrupt(format!("fault description: {e}")))?;
                JournalRecord::Failed {
                    request,
                    tenant,
                    class,
                    description,
                }
            }
            kind::CHECKPOINT => JournalRecord::Checkpoint {
                retained: reader.read_word()?,
            },
            other => {
                return Err(wire::WireError::corrupt(format!(
                    "unknown record kind {other}"
                )))
            }
        };
        reader.finish()?;
        Ok(record)
    }

    /// Length-prefixed wire framing of this record: its `u64` LE byte length, then its
    /// validated blob. The unit [`crate::DurableJournal`] appends, and the only framing site.
    pub fn to_framed_bytes(&self, ctx: &CkksContext) -> Vec<u8> {
        let blob = self.encode(ctx);
        let mut out = Vec::with_capacity(8 + blob.len());
        out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
        out.extend_from_slice(&blob);
        out
    }

    /// The request this record concerns, when it concerns one.
    pub fn request(&self) -> Option<RequestId> {
        match self {
            JournalRecord::Header { .. } | JournalRecord::Checkpoint { .. } => None,
            JournalRecord::Admitted { request, .. }
            | JournalRecord::Shed { request, .. }
            | JournalRecord::Started { request, .. }
            | JournalRecord::Completed { request, .. }
            | JournalRecord::Failed { request, .. } => Some(*request),
        }
    }
}

fn decode_tenant(word: u64) -> Result<TenantId, wire::WireError> {
    u32::try_from(word)
        .map(TenantId)
        .map_err(|_| wire::WireError::corrupt(format!("tenant id {word} overflows u32")))
}

fn snapshot_err(e: fab_ckks::CkksError) -> wire::WireError {
    wire::WireError::corrupt(format!("embedded snapshot rejected: {e}"))
}

/// The result of decoding journal bytes: the records of the clean prefix, where that prefix
/// ends, and how many torn tail bytes follow it. The kept bytes are `&bytes[..clean_len]`.
#[derive(Debug)]
pub struct RecoveredJournal {
    /// Every decoded record after the header, in write order.
    pub records: Vec<JournalRecord>,
    /// Length of the clean prefix (header included); 0 when even the header was torn.
    pub clean_len: usize,
    /// Bytes dropped from the torn tail (0 for a cleanly closed journal).
    pub torn_bytes: usize,
}

impl RecoveredJournal {
    /// Decodes journal bytes written by a (possibly crashed) process: drops a torn tail and
    /// decodes and validates every complete record before it (header excluded from
    /// [`Self::records`]).
    ///
    /// # Errors
    ///
    /// Returns [`CorruptJournal`] when a *complete* record fails validation — checksum or
    /// magic mismatch, unknown kind, an embedded snapshot rejection, or a first record that
    /// is not a matching [`JournalRecord::Header`]. Pure tail truncation is never an error.
    pub fn open(bytes: &[u8], ctx: &CkksContext) -> Result<Self, CorruptJournal> {
        Self::open_mode(bytes, ctx, false)
    }

    /// Decodes journal bytes whose unsynced tail may have been damaged by a *power loss*, not
    /// just truncated: torn mid-sector writes and reordered write-back can leave an invalid
    /// record (even a zero-filled hole) in front of bytes that did reach the disk. The
    /// first invalid record therefore ends the log — everything from it on is dropped and
    /// counted in [`Self::torn_bytes`] — because under an fsync-disciplined writer such
    /// damage can only live in the unsynced crash tail.
    ///
    /// Use [`Self::open`] for sealed segments (fully fsynced before the next segment was
    /// created): there, any invalid record is bit rot and must surface typed.
    ///
    /// # Errors
    ///
    /// Only configuration errors, which no crash can cause and which fail in both modes: a
    /// *valid* header whose parameter fingerprint does not match `ctx`, or a complete record
    /// of another format version ([`wire::WireErrorKind::UnsupportedVersion`]).
    pub fn open_lenient(bytes: &[u8], ctx: &CkksContext) -> Result<Self, CorruptJournal> {
        Self::open_mode(bytes, ctx, true)
    }

    fn open_mode(bytes: &[u8], ctx: &CkksContext, lenient: bool) -> Result<Self, CorruptJournal> {
        let mut offset = 0usize;
        let mut records = Vec::new();
        let mut clean_len = 0usize;
        loop {
            let remaining = bytes.len() - offset;
            if remaining < 8 {
                break; // torn (or exact) tail: a length prefix is incomplete
            }
            let len = u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"));
            let Ok(len) = usize::try_from(len) else {
                break; // a length that overflows usize can only be a tear into garbage
            };
            if len > remaining - 8 {
                break; // torn tail: the record body was cut
            }
            if len < wire::HEADER_BYTES {
                // A complete length prefix describing an impossible record is not a tear —
                // an append-only writer never produces one — so on a synced prefix it is
                // corruption. In the unsynced crash tail it can be a reordering hole.
                if lenient {
                    break;
                }
                return Err(CorruptJournal {
                    offset,
                    reason: format!("record length {len} is shorter than a blob header"),
                });
            }
            let blob = &bytes[offset + 8..offset + 8 + len];
            let record = match JournalRecord::decode(blob, ctx) {
                Ok(record) => record,
                Err(e) => {
                    // Another build's record is not crash damage: dropping it as a torn
                    // tail would silently discard the whole log.
                    if lenient && e.kind != wire::WireErrorKind::UnsupportedVersion {
                        break;
                    }
                    return Err(CorruptJournal {
                        offset,
                        reason: e.reason,
                    });
                }
            };
            if records.is_empty() && clean_len == 0 {
                let JournalRecord::Header { fingerprint } = record else {
                    if lenient {
                        break;
                    }
                    return Err(CorruptJournal {
                        offset,
                        reason: "first record is not a journal header".into(),
                    });
                };
                let expected = wire::param_fingerprint(ctx.params());
                if fingerprint != expected {
                    return Err(CorruptJournal {
                        offset,
                        reason: format!(
                            "journal fingerprint {fingerprint:#018x} does not match the \
                             opening context's {expected:#018x}"
                        ),
                    });
                }
            } else {
                records.push(record);
            }
            offset += 8 + len;
            clean_len = offset;
        }
        Ok(Self {
            records,
            clean_len,
            torn_bytes: bytes.len() - clean_len,
        })
    }
}

/// What a record stream says about one request — the lifecycle state machine
/// `Admitted → Started → (Completed | Failed)`, or `Shed` at submission, folded to the three
/// facts everything downstream needs. Recovery (settle or re-admit) and compaction (what to
/// retain) are both read off this, so they cannot disagree about a stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestState {
    /// The request's [`JournalRecord::Admitted`] record (the last one, should a stream
    /// hold several).
    pub admitted: Option<JournalRecord>,
    /// [`JournalRecord::Started`] records seen. Each one beyond the first is an execution
    /// attempt a previous process abandoned mid-flight.
    pub starts: u64,
    /// The request's outcome record — [`JournalRecord::Shed`], [`JournalRecord::Completed`]
    /// or [`JournalRecord::Failed`] (the last one, should a stream hold several).
    pub outcome: Option<JournalRecord>,
}

impl RequestState {
    /// The record that decides the request's fate: its outcome if it settled, else its
    /// admission if it was in flight. `None` for a request known only by `Started` records,
    /// which can neither be replayed (no program, no input) nor settled.
    pub fn deciding_record(&self) -> Option<&JournalRecord> {
        self.outcome.as_ref().or(self.admitted.as_ref())
    }

    /// [`Self::deciding_record`], by value.
    pub fn into_deciding_record(self) -> Option<JournalRecord> {
        self.outcome.or(self.admitted)
    }
}

/// Folds a record stream (in write order) into per-request lifecycle state, keyed and so
/// ordered by request id. Headers and compaction markers carry no request state.
pub fn fold_requests(records: Vec<JournalRecord>) -> BTreeMap<RequestId, RequestState> {
    let mut requests: BTreeMap<RequestId, RequestState> = BTreeMap::new();
    for record in records {
        let Some(request) = record.request() else {
            continue;
        };
        let state = requests.entry(request).or_default();
        match record {
            JournalRecord::Admitted { .. } => state.admitted = Some(record),
            JournalRecord::Started { .. } => state.starts += 1,
            JournalRecord::Shed { .. }
            | JournalRecord::Completed { .. }
            | JournalRecord::Failed { .. } => state.outcome = Some(record),
            JournalRecord::Header { .. } | JournalRecord::Checkpoint { .. } => {}
        }
    }
    requests
}

//! Multi-tenant serving front-end with a trace-driven evaluation-key cache.
//!
//! FAB's serving argument (Section 5 of the paper) is that evaluation keys dominate the
//! working set: switching keys are streamed from HBM and their fetch is overlapped with
//! compute by the scheduler. At paper scale a single tenant's key set runs to tens of
//! megabytes, so a population of tenants makes keys — not ciphertexts — the dataset. This
//! crate is the software realisation of that regime:
//!
//! * [`TenantRegistry`] holds each tenant's key material in *serialized* form (the stand-in
//!   for HBM/backing store): one relinearisation key plus Galois keys, as produced by
//!   [`fab_ckks::SwitchingKey::to_bytes`].
//! * [`EvalKeyCache`] is the bounded deserialized-key working set: byte-budgeted admission
//!   (an entry larger than the whole budget is served **uncached**), LRU eviction with a
//!   cost-aware tiebreak (equal recency evicts the cheaper-to-refetch, smaller entry first),
//!   and hardware-monitor-style counters ([`CacheStats`]) that tests assert exactly.
//! * [`Prefetcher`] is the software analogue of FAB's key-prefetch-overlap: before a request
//!   executes, its key stream is planned ([`Program::key_refs`]) and the upcoming switching
//!   keys are warmed into the cache, so execution finds them resident.
//! * [`FabServer`] ties it together: a FIFO request queue, per-request phase labels
//!   (`serve_queue` / `serve_prefetch` / `serve_execute` in [`fab_trace::phase`]) on the
//!   evaluator's trace sink, and a [`LatencyHistogram`] of end-to-end latencies.
//!
//! # The `KeyProvider` seam
//!
//! Which keys are resident changes over time, so nothing that executes holds a key:
//! [`fab_ckks::KeyProvider`] is the one way any pipeline is handed one — each key switch
//! asks for the [`KeyRef`] it needs at the moment of use. [`CachedKeyProvider`] implements
//! the seam over [`EvalKeyCache`], so the very same [`Program::execute`] control flow (an
//! [`fab_ckks::ExecBackend`] over the caller's provider) runs against fully resident keys
//! ([`fab_ckks::ResidentKeyProvider`]), a generous cache, or a cache so small every access
//! is a cold miss that deserializes from the tenant's stored bytes. The crate's property
//! tests prove the resulting ciphertexts are **bitwise identical** across all of those
//! configurations — cache state must never change a single output bit.
//!
//! # Prefetch scheduling
//!
//! A request's key-switch DAG is known before execution, and it is *planned*, not replayed:
//! a [`Program`] has one walk over its ops, written against [`fab_ckks::EvalBackend`], and
//! [`Program::key_refs`] is the key stream a [`fab_ckks::PlanBackend`] records while it
//! runs that walk on a shadow ciphertext — the skip rules (a square at level 0, a rotation
//! by a multiple of the slot count) exist once, and `cache_equivalence` pins the stream to
//! the keys a recording provider is really asked for. [`Prefetcher::warm`] deduplicates that
//! list, keeps the first `lookahead` distinct keys, and loads them with prefetch-tagged
//! cache entries; a later demand access that finds a prefetched entry counts as a
//! `prefetch_hit`. Prefetch never bypasses the byte budget — an oversized key is simply not
//! warmed and is served uncached at use time.
//!
//! # Failure domains
//!
//! Each request is its own failure domain. [`FabServer::run`] returns one
//! [`RequestOutcome`] per submitted request — completed, failed with an attributed
//! [`ServeError`], or shed by the bounded queue — and never aborts a batch over one
//! tenant's fault. A failing request rolls back its cache admissions (so its residue cannot
//! perturb a later request's hit pattern) and charges a `serve_failed` phase mark so
//! recorded traces still balance. Key blobs carry a magic/version word and a content
//! checksum ([`fab_ckks::SwitchingKey::to_bytes`]; word-parallel, so a cache miss hashes at
//! memory speed, and certain to catch any damage confined to one aligned 8-byte word — an
//! integrity check against bit rot, not an authenticator); a corrupt blob is rejected with a typed
//! error, quarantined in the cache, and re-probed once per access with bounded, *counted*
//! backoff — no wall-clock sleeps anywhere in the retry path. Deadlines and backpressure
//! degrade before they fail: over the pressure threshold the server first skips prefetch,
//! and only a full queue sheds (reject-newest, as a typed [`RequestOutcome::Shed`]).
//! The [`fault`] module injects all of these failure modes deterministically from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod error;
pub mod fault;
mod histogram;
pub mod journal;
mod prefetch;
mod request;
mod server;
pub mod store;
mod tenant;

pub use cache::{CacheStats, CachedKeyProvider, EvalKeyCache, RetryPolicy};
pub use error::{FaultClass, RequestId, ServeError, ServeFault};
pub use fab_ckks::KeyRef;
pub use fault::{FakeClock, FaultPlan, FaultSpec, FaultyKeySource, TenantFault};
pub use histogram::LatencyHistogram;
pub use journal::{CorruptJournal, JournalRecord, RecoveredJournal, RequestState};
pub use prefetch::Prefetcher;
pub use request::{Program, Request, ServeOp};
pub use server::{
    FabServer, RecoveryReport, RequestOutcome, RequestReport, ServeClock, ServeCounters,
    ServedRequest, ServerConfig,
};
pub use store::{DurableJournal, RecoveredStore, StoreError};
pub use tenant::{FetchError, KeySource, TenantId, TenantKeyStore, TenantRegistry};

//! The serving front-end: FIFO queue, prefetch, execution, phase labels, latency — and
//! per-request failure domains: one tenant's fault never aborts the batch.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use fab_ckks::{Ciphertext, Evaluator, GaloisKeys, RelinearizationKey};
use fab_trace::phase;

use crate::cache::{CacheStats, CachedKeyProvider, EvalKeyCache, RetryPolicy};
use crate::error::{RequestId, ServeError, ServeFault};
use crate::fault::{FakeClock, FaultSpec, FaultyKeySource, TenantFault};
use crate::histogram::LatencyHistogram;
use crate::journal::JournalRecord;
use crate::prefetch::Prefetcher;
use crate::request::Request;
use crate::store::{DurableJournal, StoreError};
use crate::tenant::{KeySource, TenantId, TenantKeyStore, TenantRegistry};

/// Serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Byte budget of the shared evaluation-key cache.
    pub cache_budget_bytes: usize,
    /// Whether requests warm the cache from their planned key-switch DAG before executing.
    pub prefetch: bool,
    /// Maximum distinct keys the prefetcher warms per request.
    pub lookahead: usize,
    /// Per-request deadline in microseconds, measured from submission. Checked at pickup and
    /// again after prefetch — a request past its deadline fails with
    /// [`ServeFault::DeadlineExceeded`] *before* execution starts (completed work is never
    /// discarded). `None` disables deadlines.
    pub deadline_us: Option<u64>,
    /// Maximum queued requests. Submitting beyond this sheds the *newest* request (the one
    /// being submitted) with a typed [`RequestOutcome::Shed`]. `None` means unbounded.
    pub queue_capacity: Option<usize>,
    /// Queue depth above which the server degrades by skipping prefetch (cheaper requests
    /// drain the backlog faster) — degradation comes before shedding. `None` never skips.
    pub pressure_threshold: Option<usize>,
    /// Fetch attempts per demand key access (≥ 1), with counted deterministic backoff
    /// between attempts (see [`RetryPolicy`]).
    pub max_fetch_attempts: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            cache_budget_bytes: 0,
            prefetch: false,
            lookahead: 0,
            deadline_us: None,
            queue_capacity: None,
            pressure_threshold: None,
            max_fetch_attempts: RetryPolicy::default().max_attempts,
        }
    }
}

/// The microsecond clock the server stamps queue/prefetch/execute intervals with. The
/// default is monotonic wall time; the fault harness substitutes a deterministic
/// [`crate::fault::FakeClock`] so deadline behaviour is reproducible in tests.
pub trait ServeClock: std::fmt::Debug + Send + Sync {
    /// Microseconds since an arbitrary fixed origin (monotonic, non-decreasing).
    fn now_us(&self) -> u64;
}

/// Wall-clock [`ServeClock`] anchored at construction.
#[derive(Debug)]
struct MonotonicClock {
    origin: Instant,
}

impl ServeClock for MonotonicClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// Per-request timing and counter deltas.
#[derive(Debug, Clone, Copy)]
pub struct RequestReport {
    /// The request served.
    pub request: RequestId,
    /// The tenant served.
    pub tenant: TenantId,
    /// Microseconds spent queued before the server picked the request up.
    pub queue_us: u64,
    /// Microseconds spent warming the key cache.
    pub prefetch_us: u64,
    /// Microseconds executing the program.
    pub execute_us: u64,
    /// End-to-end latency (queue + prefetch + execute).
    pub total_us: u64,
    /// Ops in the request's program.
    pub ops: usize,
    /// Switching-key demand accesses the program performed.
    pub key_accesses: u64,
}

/// A completed request: its output ciphertext and report.
#[derive(Debug, Clone)]
pub struct ServedRequest {
    /// The program's output.
    pub output: Ciphertext,
    /// Timing and counters for this request.
    pub report: RequestReport,
}

/// What became of one submitted request. [`FabServer::run`] yields exactly one outcome per
/// submitted request — it never aborts a batch over one failure.
#[derive(Debug, Clone)]
pub enum RequestOutcome {
    /// Served to completion.
    Completed(ServedRequest),
    /// Failed with an attributed, classified error; the request's cache admissions were
    /// rolled back and a `serve_failed` phase mark was charged to the trace.
    Failed(ServeError),
    /// Rejected at submission by the bounded queue (reject-newest shed policy).
    Shed {
        /// The shed request.
        request: RequestId,
        /// The tenant that submitted it.
        tenant: TenantId,
        /// Queue depth at the moment of shedding.
        queue_depth: usize,
    },
}

impl RequestOutcome {
    /// The request this outcome belongs to.
    pub fn request(&self) -> RequestId {
        match self {
            RequestOutcome::Completed(served) => served.report.request,
            RequestOutcome::Failed(error) => error.request,
            RequestOutcome::Shed { request, .. } => *request,
        }
    }

    /// The tenant this outcome belongs to.
    pub fn tenant(&self) -> TenantId {
        match self {
            RequestOutcome::Completed(served) => served.report.tenant,
            RequestOutcome::Failed(error) => error.tenant,
            RequestOutcome::Shed { tenant, .. } => *tenant,
        }
    }

    /// The served request, when completed.
    pub fn completed(&self) -> Option<&ServedRequest> {
        match self {
            RequestOutcome::Completed(served) => Some(served),
            _ => None,
        }
    }

    /// The error, when failed.
    pub fn error(&self) -> Option<&ServeError> {
        match self {
            RequestOutcome::Failed(error) => Some(error),
            _ => None,
        }
    }

    /// Whether the request was shed at submission.
    pub fn is_shed(&self) -> bool {
        matches!(self, RequestOutcome::Shed { .. })
    }
}

/// Running totals over every outcome the server has produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests served to completion.
    pub completed: u64,
    /// Requests that failed with a [`ServeError`].
    pub failed: u64,
    /// Requests shed at submission by the bounded queue.
    pub shed: u64,
    /// Requests whose prefetch pass failed and was skipped (degradation, not failure).
    pub prefetch_failures: u64,
    /// Requests that skipped prefetch because the queue was over the pressure threshold.
    pub pressure_skips: u64,
}

/// What [`FabServer::recover_from_store`] rebuilt from the journal backend a crashed
/// process left behind.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Outcomes settled directly from the journal without re-execution: completed requests
    /// (output restored from their `Completed` record), failed requests (as
    /// [`ServeFault::Replayed`]), shed requests — plus in-flight requests settled as
    /// [`ServeFault::DeadlineExceeded`] because their deadline passed during the outage.
    /// Sorted by request id.
    pub settled: Vec<RequestOutcome>,
    /// In-flight or never-started requests re-admitted to the queue with their original
    /// identities, in submission order.
    pub readmitted: Vec<RequestId>,
    /// Bytes dropped from the active segment's damaged unsynced tail.
    pub torn_bytes: usize,
    /// `Started` records beyond the first per request (each one is an execution attempt a
    /// previous process abandoned mid-flight).
    pub duplicate_starts: u64,
}

/// One queued request with its identity and submission timestamp.
#[derive(Debug)]
struct QueuedRequest {
    id: RequestId,
    request: Request,
    submitted_us: u64,
}

/// The multi-tenant serving front-end.
///
/// Requests are drained FIFO; each one is (optionally) prefetched and then executed through
/// the [`CachedKeyProvider`] seam against the shared [`EvalKeyCache`]. When the evaluator
/// carries a recording sink, every request contributes `serve_queue` / `serve_prefetch` /
/// `serve_execute` phase marks to the recorded trace (plus `serve_failed` when it fails), so
/// per-phase op accounting works the same way it does for bootstrap stages.
///
/// # Failure domains
///
/// Each request is its own failure domain: [`FabServer::run`] returns one
/// [`RequestOutcome`] per submitted request and never aborts the batch. A failing request's
/// cache admissions are rolled back so its residue cannot change a later request's hit
/// pattern, and its error carries tenant/request attribution plus a transient/permanent
/// classification ([`ServeError`]).
#[derive(Debug)]
pub struct FabServer {
    evaluator: Evaluator,
    registry: TenantRegistry,
    cache: EvalKeyCache,
    prefetcher: Option<Prefetcher>,
    histogram: LatencyHistogram,
    queue: VecDeque<QueuedRequest>,
    config: ServerConfig,
    clock: Arc<dyn ServeClock>,
    next_id: u64,
    shed_outcomes: Vec<RequestOutcome>,
    counters: ServeCounters,
    faults: BTreeMap<TenantId, TenantFault>,
    fault_clock: Option<Arc<FakeClock>>,
    durable: Option<DurableJournal>,
    crashed: bool,
    executes_seen: u64,
}

impl FabServer {
    /// Creates a server around an evaluator (plain or sink-instrumented).
    pub fn new(evaluator: Evaluator, config: ServerConfig) -> Self {
        Self {
            evaluator,
            registry: TenantRegistry::new(),
            cache: EvalKeyCache::with_retry(
                config.cache_budget_bytes,
                RetryPolicy {
                    max_attempts: config.max_fetch_attempts.max(1),
                },
            ),
            prefetcher: config.prefetch.then(|| Prefetcher::new(config.lookahead)),
            histogram: LatencyHistogram::new(),
            queue: VecDeque::new(),
            config,
            clock: Arc::new(MonotonicClock {
                origin: Instant::now(),
            }),
            next_id: 0,
            shed_outcomes: Vec::new(),
            counters: ServeCounters::default(),
            faults: BTreeMap::new(),
            fault_clock: None,
            durable: None,
            crashed: false,
            executes_seen: 0,
        }
    }

    /// Installs a deterministic [`FakeClock`] as both the serving clock and the sink for
    /// injected fetch latency — with this in place, deadline outcomes are exact functions
    /// of the fault schedule.
    pub fn use_fake_clock(&mut self, clock: Arc<FakeClock>) {
        self.fault_clock = Some(clock.clone());
        self.clock = clock;
    }

    /// Attaches the write-ahead [`DurableJournal`]: from here on every
    /// admit/shed/start/complete/fail transition is appended to it (under its sync policy)
    /// *before* its in-memory effect, so [`Self::recover_from_store`] can rebuild the queue
    /// of a dead process from the journal's backend alone. An append failure — including a
    /// simulated-disk crash — latches the crashed flag: a server whose journal device died
    /// must stop acknowledging work.
    pub fn attach_durable_journal(&mut self, journal: DurableJournal) {
        self.durable = Some(journal);
    }

    /// The attached durable journal, if any.
    pub fn durable_journal(&self) -> Option<&DurableJournal> {
        self.durable.as_ref()
    }

    /// Mutable access to the attached durable journal (the ladder benchmark and the
    /// durability tests read journal sizes through this).
    pub fn durable_journal_mut(&mut self) -> Option<&mut DurableJournal> {
        self.durable.as_mut()
    }

    /// Detaches and returns the durable journal (dropping it releases its backend).
    pub fn take_durable_journal(&mut self) -> Option<DurableJournal> {
        self.durable.take()
    }

    /// Group-commits the durable journal: fsyncs its active segment now. Called
    /// automatically at the end of [`Self::run`]; exposed for explicit barriers. A sync
    /// failure latches the crashed flag. No-op without a durable journal or once crashed.
    pub fn sync_journal(&mut self) {
        if self.crashed {
            return;
        }
        let now_us = self.clock.now_us();
        if let Some(durable) = self.durable.as_mut() {
            if durable.sync_now(now_us).is_err() {
                self.crashed = true;
            }
        }
    }

    /// Compacts the durable journal (see [`DurableJournal::compact`]): settled requests
    /// fold to their outcome records and old segments are truncated away.
    ///
    /// # Errors
    ///
    /// Propagates the journal's [`StoreError`]; a storage failure latches the crashed
    /// flag first. `Ok` and a no-op without a durable journal or once crashed.
    pub fn compact_journal(&mut self) -> std::result::Result<(), StoreError> {
        if self.crashed {
            return Ok(());
        }
        let now_us = self.clock.now_us();
        if let Some(durable) = self.durable.as_mut() {
            if let Err(e) = durable.compact(now_us) {
                if matches!(&e, StoreError::Storage(_)) {
                    self.crashed = true;
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Whether the journal device has failed (a storage error, or a simulated disk's armed
    /// crash firing). From then on the server is a dead process: every submit, journal
    /// append and queue drain is refused, and only what the backend holds survives.
    pub fn has_crashed(&self) -> bool {
        self.crashed
    }

    /// Successful program executions this server has performed — the crash-recovery suite
    /// asserts the recovered server executes exactly the non-settled requests, proving
    /// journaled completions are never run twice.
    pub fn executions(&self) -> u64 {
        self.executes_seen
    }

    /// Appends one record to the journal. A failure — the disk itself dying — latches the
    /// crashed flag. No-op without a journal or once crashed.
    fn journal_append(&mut self, record: JournalRecord) {
        if self.crashed {
            return;
        }
        if let Some(durable) = self.durable.as_mut() {
            if durable.append(&record, self.clock.now_us()).is_err() {
                self.crashed = true;
            }
        }
    }

    /// Rebuilds serving state from the journal backend a crash (real power loss or a
    /// simulated-disk schedule) left behind — the one recovery entry point.
    ///
    /// Semantics, per request, from its folded journal state ([`crate::journal::RequestState`]):
    ///
    /// * `Completed` / `Failed` / `Shed` — **settled**: the outcome is reconstructed from
    ///   the journal (output ciphertext restored bitwise; failures as
    ///   [`ServeFault::Replayed`]) and the request is *never re-executed*.
    /// * `Admitted` / `Started` — in flight: re-admitted to the queue with its original id,
    ///   program, input and submission timestamp, unless its deadline already passed (by
    ///   this server's clock), in which case it is settled as
    ///   [`ServeFault::DeadlineExceeded`] and that settlement is journaled, so a second
    ///   recovery of this journal agrees.
    ///
    /// The storage side — segment selection, lenient handling of the active segment's
    /// damaged tail, checkpoint-base folding, stale-file cleanup — is
    /// [`DurableJournal::recover`]'s. The recovered journal (already re-compacted onto a
    /// fresh base) becomes this server's journal and subsequent transitions append to it;
    /// request-id allocation resumes past the highest id it holds.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when fully durable bytes fail validation (bit rot);
    /// [`StoreError::Storage`] when the backend fails. Legal crash damage is never an
    /// error.
    pub fn recover_from_store(
        &mut self,
        backend: Box<dyn fab_store::StorageBackend + Send>,
        policy: fab_store::SyncPolicy,
        rotate_after_records: u64,
    ) -> std::result::Result<RecoveryReport, StoreError> {
        let recovered = DurableJournal::recover(
            backend,
            self.evaluator.context().clone(),
            policy,
            rotate_after_records,
        )?;
        self.durable = Some(recovered.journal);
        if let Some((max, _)) = recovered.requests.last_key_value() {
            self.next_id = self.next_id.max(max.0 + 1);
        }
        let now_us = self.clock.now_us();
        let mut report = RecoveryReport {
            settled: Vec::new(),
            readmitted: Vec::new(),
            torn_bytes: recovered.discarded_bytes,
            duplicate_starts: 0,
        };
        for (request, state) in recovered.requests {
            report.duplicate_starts += state.starts.saturating_sub(1);
            match state.into_deciding_record() {
                Some(JournalRecord::Shed {
                    tenant,
                    queue_depth,
                    ..
                }) => report.settled.push(RequestOutcome::Shed {
                    request,
                    tenant,
                    queue_depth: queue_depth as usize,
                }),
                Some(JournalRecord::Completed {
                    tenant,
                    timings_us,
                    ops,
                    key_accesses,
                    output,
                    ..
                }) => report
                    .settled
                    .push(RequestOutcome::Completed(ServedRequest {
                        output,
                        report: RequestReport {
                            request,
                            tenant,
                            queue_us: timings_us[0],
                            prefetch_us: timings_us[1],
                            execute_us: timings_us[2],
                            total_us: timings_us[3],
                            ops: ops as usize,
                            key_accesses,
                        },
                    })),
                Some(JournalRecord::Failed {
                    tenant,
                    class,
                    description,
                    ..
                }) => report.settled.push(RequestOutcome::Failed(ServeError {
                    request,
                    tenant,
                    fault: ServeFault::Replayed { class, description },
                })),
                Some(JournalRecord::Admitted {
                    tenant,
                    submitted_us,
                    program,
                    input,
                    ..
                }) => {
                    let elapsed_us = now_us.saturating_sub(submitted_us);
                    match self.config.deadline_us {
                        Some(deadline_us) if elapsed_us > deadline_us => {
                            let fault = ServeFault::DeadlineExceeded {
                                deadline_us,
                                elapsed_us,
                            };
                            self.journal_append(JournalRecord::Failed {
                                request,
                                tenant,
                                class: fault.class(),
                                description: fault.to_string(),
                            });
                            self.counters.failed += 1;
                            report.settled.push(RequestOutcome::Failed(ServeError {
                                request,
                                tenant,
                                fault,
                            }));
                        }
                        _ => {
                            report.readmitted.push(request);
                            self.queue.push_back(QueuedRequest {
                                id: request,
                                request: Request {
                                    tenant,
                                    program,
                                    input,
                                },
                                submitted_us,
                            });
                        }
                    }
                }
                // Known only by `Started` records: nothing to replay, nothing to settle.
                _ => {}
            }
        }
        Ok(report)
    }

    /// Registers a tenant by serializing their key material into the registry.
    pub fn register_tenant(
        &mut self,
        tenant: TenantId,
        rlk: &RelinearizationKey,
        galois: &GaloisKeys,
    ) {
        self.registry
            .register(tenant, TenantKeyStore::new(rlk, galois));
    }

    /// Injects a fault behaviour on one tenant's key fetch path (see [`crate::fault`]).
    /// Replaces any previous spec for the tenant; fault state (e.g. remaining failures)
    /// persists across requests until replaced or cleared.
    pub fn inject_fault(&mut self, tenant: TenantId, spec: FaultSpec) {
        self.faults.insert(tenant, TenantFault::new(spec));
    }

    /// Removes every injected fault.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// The tenant registry.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// The shared key cache.
    pub fn cache(&self) -> &EvalKeyCache {
        &self.cache
    }

    /// Mutable access to the shared key cache (the fault harness schedules chaos evictions
    /// through this).
    pub fn cache_mut(&mut self) -> &mut EvalKeyCache {
        &mut self.cache
    }

    /// The cache counters (shorthand for `cache().stats()`).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Outcome totals (completed / failed / shed / degradations).
    pub fn counters(&self) -> ServeCounters {
        self.counters
    }

    /// End-to-end latency histogram over every *completed* request.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.histogram
    }

    /// The evaluator requests execute on.
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// Enqueues a request (FIFO) and returns its identity.
    ///
    /// When the bounded queue is full the request is shed instead (reject-newest): its
    /// [`RequestOutcome::Shed`] is held and returned by the next [`Self::run`], so every
    /// submitted request still yields exactly one outcome.
    pub fn submit(&mut self, request: Request) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        if self.crashed {
            return id; // the process is dead; the submission is lost
        }
        if let Some(capacity) = self.config.queue_capacity {
            if self.queue.len() >= capacity {
                let queue_depth = self.queue.len();
                self.journal_append(JournalRecord::Shed {
                    request: id,
                    tenant: request.tenant,
                    queue_depth: queue_depth as u64,
                });
                if self.crashed {
                    return id;
                }
                self.counters.shed += 1;
                self.shed_outcomes.push(RequestOutcome::Shed {
                    request: id,
                    tenant: request.tenant,
                    queue_depth,
                });
                return id;
            }
        }
        let submitted_us = self.clock.now_us();
        // Write-ahead discipline: the admission is durable before the queue entry exists,
        // so a crash can lose an unacknowledged request but never acknowledge then forget.
        self.journal_append(JournalRecord::Admitted {
            request: id,
            tenant: request.tenant,
            submitted_us,
            program: request.program.clone(),
            input: request.input.clone(),
        });
        if self.crashed {
            return id;
        }
        self.queue.push_back(QueuedRequest {
            id,
            request,
            submitted_us,
        });
        id
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Drains the queue FIFO, producing one [`RequestOutcome`] per submitted request —
    /// completed, failed (with an attributed [`ServeError`]) or shed — in submission order.
    /// A failing request rolls back its cache admissions and charges a `serve_failed` phase
    /// mark; the batch always runs to the end.
    pub fn run(&mut self) -> Vec<RequestOutcome> {
        let mut outcomes: Vec<RequestOutcome> = std::mem::take(&mut self.shed_outcomes);
        while !self.crashed {
            let Some(queued) = self.queue.pop_front() else {
                break;
            };
            if let Some(outcome) = self.serve(queued) {
                outcomes.push(outcome);
            }
        }
        // End-of-run group commit: whatever the sync policy deferred becomes durable
        // before the batch's outcomes are handed back.
        self.sync_journal();
        outcomes.sort_by_key(RequestOutcome::request);
        outcomes
    }

    /// Serves one request inside its own failure domain. Returns `None` when the journal
    /// device died mid-request — the outcome is lost with the process, and only the journal
    /// knows how far the request got.
    fn serve(&mut self, queued: QueuedRequest) -> Option<RequestOutcome> {
        let sink_enabled = self.evaluator.sink().is_enabled();
        if sink_enabled {
            self.evaluator.sink().begin_phase(phase::SERVE_QUEUE);
        }
        let queue_us = self.clock.now_us().saturating_sub(queued.submitted_us);
        let id = queued.id;
        let tenant = queued.request.tenant;
        self.journal_append(JournalRecord::Started { request: id });
        if self.crashed {
            return None;
        }
        self.cache.begin_request();
        match self.serve_inner(&queued, queue_us) {
            Ok(served) => {
                self.journal_append(JournalRecord::Completed {
                    request: id,
                    tenant,
                    timings_us: [
                        served.report.queue_us,
                        served.report.prefetch_us,
                        served.report.execute_us,
                        served.report.total_us,
                    ],
                    ops: served.report.ops as u64,
                    key_accesses: served.report.key_accesses,
                    output: served.output.clone(),
                });
                if self.crashed {
                    return None; // work done, receipt lost: recovery re-executes
                }
                self.counters.completed += 1;
                self.histogram.record(served.report.total_us);
                Some(RequestOutcome::Completed(served))
            }
            Err(fault) => {
                self.cache.rollback_request();
                if sink_enabled {
                    self.evaluator.sink().begin_phase(phase::SERVE_FAILED);
                }
                self.journal_append(JournalRecord::Failed {
                    request: id,
                    tenant,
                    class: fault.class(),
                    description: fault.to_string(),
                });
                if self.crashed {
                    return None;
                }
                self.counters.failed += 1;
                Some(RequestOutcome::Failed(ServeError {
                    request: id,
                    tenant,
                    fault,
                }))
            }
        }
    }

    /// The fallible middle of [`Self::serve`]: everything that can fail funnels through the
    /// returned [`ServeFault`] so `serve` has a single rollback/attribution point.
    fn serve_inner(
        &mut self,
        queued: &QueuedRequest,
        queue_us: u64,
    ) -> std::result::Result<ServedRequest, ServeFault> {
        let deadline = self.config.deadline_us;
        if let Some(deadline_us) = deadline {
            if queue_us > deadline_us {
                return Err(ServeFault::DeadlineExceeded {
                    deadline_us,
                    elapsed_us: queue_us,
                });
            }
        }
        let tenant = queued.request.tenant;
        let store = self
            .registry
            .store(tenant)
            .map_err(|_| ServeFault::UnknownTenant)?;
        // The fault seam: a tenant with an injected fault spec fetches through a wrapping
        // source; everyone else fetches straight from their store.
        let faulty;
        let source: &dyn KeySource = match self.faults.get(&tenant) {
            Some(state) => {
                faulty = FaultyKeySource::new(store, state, self.fault_clock.as_deref());
                &faulty
            }
            None => store,
        };
        let accesses_before = self.cache.stats().demand_accesses();

        let sink_enabled = self.evaluator.sink().is_enabled();
        if sink_enabled {
            self.evaluator.sink().begin_phase(phase::SERVE_PREFETCH);
        }
        let prefetch_start = self.clock.now_us();
        let under_pressure = self
            .config
            .pressure_threshold
            .is_some_and(|threshold| self.queue.len() > threshold);
        if under_pressure {
            self.counters.pressure_skips += 1;
        } else if let Some(prefetcher) = &self.prefetcher {
            let upcoming = queued
                .request
                .program
                .key_refs(self.evaluator.context(), queued.request.input.level())
                .map_err(|source| ServeFault::Evaluation { source })?;
            // Prefetch is opportunistic: a warm failure degrades to demand fetching (which
            // retries); it does not fail the request.
            if prefetcher
                .warm(&mut self.cache, tenant, source, &upcoming)
                .is_err()
            {
                self.counters.prefetch_failures += 1;
            }
        }
        let prefetch_us = self.clock.now_us().saturating_sub(prefetch_start);
        if let Some(deadline_us) = deadline {
            let elapsed_us = queue_us + prefetch_us;
            if elapsed_us > deadline_us {
                return Err(ServeFault::DeadlineExceeded {
                    deadline_us,
                    elapsed_us,
                });
            }
        }

        if sink_enabled {
            self.evaluator.sink().begin_phase(phase::SERVE_EXECUTE);
        }
        let execute_start = self.clock.now_us();
        let provider = CachedKeyProvider::new(&mut self.cache, source, tenant);
        let output = queued
            .request
            .program
            .execute(&self.evaluator, &provider, &queued.request.input)
            .map_err(|e| {
                provider
                    .take_fault()
                    .unwrap_or(ServeFault::Evaluation { source: e })
            })?;
        let execute_us = self.clock.now_us().saturating_sub(execute_start);
        self.executes_seen += 1;

        let total_us = queue_us + prefetch_us + execute_us;
        Ok(ServedRequest {
            output,
            report: RequestReport {
                request: queued.id,
                tenant,
                queue_us,
                prefetch_us,
                execute_us,
                total_us,
                ops: queued.request.program.len(),
                key_accesses: self.cache.stats().demand_accesses() - accesses_before,
            },
        })
    }
}

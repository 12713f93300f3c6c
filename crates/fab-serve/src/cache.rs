//! The byte-budgeted evaluation-key cache and its [`KeyProvider`] adapter.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use fab_ckks::{CkksError, KeyProvider, KeyRef, Result, SwitchingKey};

use crate::error::ServeFault;
use crate::tenant::{FetchError, KeySource, TenantId};

/// Hardware-monitor-style cache counters. Every latency/hit-rate claim the serving layer
/// makes is backed by these, the same way `tests/op_accounting.rs` pins NTT and byte counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that found the key resident.
    pub hits: u64,
    /// Demand accesses that deserialized and admitted the key.
    pub misses: u64,
    /// Subset of `hits` where residency came from a prefetch not yet touched by demand.
    pub prefetch_hits: u64,
    /// Keys loaded by the prefetcher.
    pub prefetches: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Demand accesses served *without* caching because the key alone exceeds the budget.
    pub uncached_fetches: u64,
    /// Total bytes deserialized from tenant stores (demand misses, prefetches and uncached
    /// fetches alike) — the software analogue of HBM key-read traffic.
    pub bytes_fetched: u64,
    /// Transient fetch failures that were retried (one per failed attempt that had budget
    /// left to retry).
    pub transient_retries: u64,
    /// Deterministic backoff charged between retry attempts, in abstract units (attempt `k`
    /// charges `2^k`); a real deployment would sleep these, tests only count them.
    pub backoff_units: u64,
    /// Fetches whose bytes failed validation — each one quarantines its `(tenant, key)`.
    pub corrupt_fetches: u64,
    /// Entries removed by [`EvalKeyCache::rollback_request`] when a request failed after
    /// admitting them.
    pub rollbacks: u64,
    /// Entries force-evicted by an injected chaos-eviction schedule (fault harness only).
    pub chaos_evictions: u64,
}

impl CacheStats {
    /// Demand accesses observed (hits + misses + uncached fetches).
    pub fn demand_accesses(&self) -> u64 {
        self.hits + self.misses + self.uncached_fetches
    }

    /// Fraction of demand accesses served from the cache (0 when none were observed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Bounded, deterministic retry policy for demand fetches: up to `max_attempts` tries, with
/// exponential backoff *counted* (never slept) between them — attempt `k` (0-based) charges
/// `2^k` units to [`CacheStats::backoff_units`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total fetch attempts per demand access (≥ 1; 1 means no retries).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

/// One admission logged during the current request, tagged with the phase that made it so
/// [`EvalKeyCache::rollback_request`] can treat prefetch and demand admissions differently.
#[derive(Debug, Clone, Copy)]
struct Admission {
    tenant: TenantId,
    key: KeyRef,
    prefetched: bool,
}

#[derive(Debug)]
struct CacheEntry {
    /// The [`Arc`] keeps the polynomials alive for the duration of the op using them even if
    /// the entry is evicted mid-flight.
    material: Arc<SwitchingKey>,
    bytes: usize,
    last_use: u64,
    prefetched: bool,
}

/// The bounded working set of deserialized evaluation keys, shared across tenants and keyed
/// by `(tenant, key)`.
///
/// * **Admission** is byte-budgeted: an entry is admitted only if it fits the budget at all;
///   a key larger than the entire budget is served uncached (fetched, used, dropped).
/// * **Eviction** is LRU with a cost-aware tiebreak: the least recently used entry goes
///   first, and among equal recency the smaller entry (cheapest to refetch) is evicted.
/// * Iteration order is a [`BTreeMap`], so eviction decisions — and therefore every counter —
///   are deterministic and test-assertable.
/// * **Fault handling**: transient fetch failures are retried under a bounded [`RetryPolicy`]
///   with counted (not slept) backoff; corrupt blobs quarantine their `(tenant, key)` so the
///   failure is attributed, while a later fetch that succeeds (a healed source) lifts the
///   quarantine. Admissions are logged per request so a failing request's admissions can be
///   rolled back ([`Self::rollback_request`]).
#[derive(Debug)]
pub struct EvalKeyCache {
    budget_bytes: usize,
    resident_bytes: usize,
    clock: u64,
    entries: BTreeMap<(TenantId, KeyRef), CacheEntry>,
    stats: CacheStats,
    retry: RetryPolicy,
    quarantine: BTreeSet<(TenantId, KeyRef)>,
    admissions: Vec<Admission>,
    chaos_evictions: BTreeSet<u64>,
}

impl EvalKeyCache {
    /// An empty cache with the given byte budget and the default retry policy.
    pub fn new(budget_bytes: usize) -> Self {
        Self::with_retry(budget_bytes, RetryPolicy::default())
    }

    /// An empty cache with an explicit retry policy.
    pub fn with_retry(budget_bytes: usize, retry: RetryPolicy) -> Self {
        Self {
            budget_bytes,
            resident_bytes: 0,
            clock: 0,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
            retry: RetryPolicy {
                max_attempts: retry.max_attempts.max(1),
            },
            quarantine: BTreeSet::new(),
            admissions: Vec::new(),
            chaos_evictions: BTreeSet::new(),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a key is currently resident (no counter is touched).
    pub fn contains(&self, tenant: TenantId, key: KeyRef) -> bool {
        self.entries.contains_key(&(tenant, key))
    }

    /// Number of `(tenant, key)` pairs currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.quarantine.len()
    }

    /// The accumulated counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Starts a request-scoped admission transaction: admissions (demand misses and
    /// prefetches) from here on are logged so [`Self::rollback_request`] can undo them if
    /// the request fails. Calling it again (the next request) commits implicitly.
    pub fn begin_request(&mut self) {
        self.admissions.clear();
    }

    /// Rolls back the **demand-phase** admissions since [`Self::begin_request`]: entries a
    /// failing request pulled in at use time are removed (if still resident), so its residue
    /// cannot change a later request's hit pattern relative to the fault-free run.
    ///
    /// **Prefetch-phase admissions are deliberately kept.** A fault-free run of the same
    /// request would have performed the identical prefetch walk before execution, so those
    /// entries are exactly what the cache would hold had the request succeeded — evicting
    /// them would *diverge* from the fault-free hit pattern (and throw away validated key
    /// material a retry or a co-tenant request is likely to touch next). Only the demand
    /// misses of the failed execution, which a fault-free trace may never replicate, are
    /// undone. Counted in [`CacheStats::rollbacks`] (demand-phase removals only).
    pub fn rollback_request(&mut self) {
        let admitted = std::mem::take(&mut self.admissions);
        for admission in admitted {
            if admission.prefetched {
                continue;
            }
            if let Some(entry) = self.entries.remove(&(admission.tenant, admission.key)) {
                self.resident_bytes -= entry.bytes;
                self.stats.rollbacks += 1;
            }
        }
    }

    /// Fault harness only: schedules forced evictions — after the `n`-th demand access
    /// (1-based, matching [`CacheStats::demand_accesses`]) the LRU entry is evicted, for
    /// each `n` in `at_demand_accesses`. Deterministic by construction.
    pub fn schedule_chaos_evictions(&mut self, at_demand_accesses: &[u64]) {
        self.chaos_evictions
            .extend(at_demand_accesses.iter().copied());
    }

    /// Demand access: returns the key, from cache when resident, otherwise fetched from
    /// `source` under the retry policy (and admitted if it fits the budget).
    ///
    /// # Errors
    ///
    /// [`ServeFault::MissingKey`] when the source holds no such key,
    /// [`ServeFault::KeyFetch`] when every attempt failed transiently, and
    /// [`ServeFault::CorruptKey`] when the bytes failed validation (the `(tenant, key)` is
    /// quarantined until a fetch succeeds again).
    pub fn get(
        &mut self,
        tenant: TenantId,
        key: KeyRef,
        source: &dyn KeySource,
    ) -> std::result::Result<Arc<SwitchingKey>, ServeFault> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.entries.get_mut(&(tenant, key)) {
            entry.last_use = clock;
            self.stats.hits += 1;
            if entry.prefetched {
                entry.prefetched = false;
                self.stats.prefetch_hits += 1;
            }
            let material = entry.material.clone();
            self.apply_chaos_eviction();
            return Ok(material);
        }
        let (bytes, material) = self.fetch_with_retry(tenant, key, source)?;
        self.stats.bytes_fetched += bytes as u64;
        if bytes > self.budget_bytes {
            self.stats.uncached_fetches += 1;
            self.apply_chaos_eviction();
            return Ok(material);
        }
        self.stats.misses += 1;
        self.evict_for(bytes);
        self.resident_bytes += bytes;
        self.admissions.push(Admission {
            tenant,
            key,
            prefetched: false,
        });
        self.entries.insert(
            (tenant, key),
            CacheEntry {
                material: material.clone(),
                bytes,
                last_use: clock,
                prefetched: false,
            },
        );
        self.apply_chaos_eviction();
        Ok(material)
    }

    /// Prefetch: warms a key into the cache ahead of its use. Returns whether the key is now
    /// resident — `false` when it exceeds the whole budget (prefetch never bypasses
    /// admission) — without fetching anything in that case. Prefetch is opportunistic, so it
    /// makes a single attempt: retries are reserved for demand accesses.
    ///
    /// # Errors
    ///
    /// Same fault types as [`Self::get`], with `attempts: 1` for transient failures.
    pub fn prefetch(
        &mut self,
        tenant: TenantId,
        key: KeyRef,
        source: &dyn KeySource,
    ) -> std::result::Result<bool, ServeFault> {
        if self.entries.contains_key(&(tenant, key)) {
            return Ok(true);
        }
        let bytes = match source.key_size(key) {
            Ok(bytes) => bytes,
            Err(e) => return Err(self.classify_fetch_error(tenant, key, 1, e)),
        };
        if bytes > self.budget_bytes {
            return Ok(false);
        }
        let material = match source.fetch(key) {
            Ok(material) => {
                self.quarantine.remove(&(tenant, key));
                material
            }
            Err(e) => return Err(self.classify_fetch_error(tenant, key, 1, e)),
        };
        self.clock += 1;
        self.stats.prefetches += 1;
        self.stats.bytes_fetched += bytes as u64;
        self.evict_for(bytes);
        self.resident_bytes += bytes;
        self.admissions.push(Admission {
            tenant,
            key,
            prefetched: true,
        });
        self.entries.insert(
            (tenant, key),
            CacheEntry {
                material,
                bytes,
                last_use: self.clock,
                prefetched: true,
            },
        );
        Ok(true)
    }

    /// Drops every entry (counters and quarantine are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.admissions.clear();
        self.resident_bytes = 0;
    }

    /// The bounded-retry fetch loop behind a demand miss: transient failures retry with
    /// counted exponential backoff; corrupt bytes quarantine the pair and also retry (the
    /// registry may have healed — e.g. a fail-then-recover injected source), and a success
    /// lifts the quarantine. Missing keys never retry.
    fn fetch_with_retry(
        &mut self,
        tenant: TenantId,
        key: KeyRef,
        source: &dyn KeySource,
    ) -> std::result::Result<(usize, Arc<SwitchingKey>), ServeFault> {
        // A quarantined pair gets a single probe per access: it is known-bad, so the retry
        // budget is not spent re-validating the same corrupt bytes, but one attempt keeps
        // recovery possible once the underlying source heals.
        let max_attempts = if self.quarantine.contains(&(tenant, key)) {
            1
        } else {
            self.retry.max_attempts
        };
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let result = source
                .key_size(key)
                .and_then(|bytes| source.fetch(key).map(|material| (bytes, material)));
            match result {
                Ok(ok) => {
                    self.quarantine.remove(&(tenant, key));
                    return Ok(ok);
                }
                Err(e) => {
                    if matches!(&e, FetchError::Permanent(CkksError::CorruptKey { .. })) {
                        self.stats.corrupt_fetches += 1;
                        self.quarantine.insert((tenant, key));
                    }
                    let retryable =
                        !matches!(&e, FetchError::Permanent(CkksError::MissingKey { .. }));
                    if !retryable || attempts >= max_attempts {
                        return Err(self.classify_fetch_error(tenant, key, attempts, e));
                    }
                    if matches!(&e, FetchError::Transient(_)) {
                        self.stats.transient_retries += 1;
                    }
                    self.stats.backoff_units += 1 << (attempts - 1);
                }
            }
        }
    }

    /// Maps a source-level [`FetchError`] to the attributable [`ServeFault`].
    fn classify_fetch_error(
        &mut self,
        tenant: TenantId,
        key: KeyRef,
        attempts: u32,
        error: FetchError,
    ) -> ServeFault {
        match error {
            FetchError::Transient(reason) => ServeFault::KeyFetch {
                key,
                attempts,
                reason,
            },
            FetchError::Permanent(source @ CkksError::CorruptKey { .. }) => {
                self.quarantine.insert((tenant, key));
                ServeFault::CorruptKey {
                    key,
                    attempts,
                    source,
                }
            }
            FetchError::Permanent(source) => ServeFault::MissingKey { key, source },
        }
    }

    /// If the chaos schedule names the current demand-access count, force-evict the LRU
    /// entry (the harness's mid-request eviction injection).
    fn apply_chaos_eviction(&mut self) {
        if !self.chaos_evictions.remove(&self.stats.demand_accesses()) {
            return;
        }
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, entry)| (entry.last_use, entry.bytes))
            .map(|(&id, _)| id);
        if let Some(id) = victim {
            let entry = self.entries.remove(&id).expect("victim is resident");
            self.resident_bytes -= entry.bytes;
            self.stats.chaos_evictions += 1;
        }
    }

    /// Evicts least-recently-used entries (equal recency: smaller entry first) until `needed`
    /// additional bytes fit the budget.
    fn evict_for(&mut self, needed: usize) {
        while self.resident_bytes + needed > self.budget_bytes {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| (entry.last_use, entry.bytes))
                .map(|(&id, _)| id);
            let Some(id) = victim else { break };
            let entry = self.entries.remove(&id).expect("victim is resident");
            self.resident_bytes -= entry.bytes;
            self.stats.evictions += 1;
        }
    }
}

/// [`KeyProvider`] over an [`EvalKeyCache`] for one tenant: every key an op asks for is
/// resolved through the cache at the moment of use — hit, prefetch hit, cold miss, or
/// uncached oversized fetch, all transparently to the executing program.
///
/// The [`KeyProvider`] trait speaks [`CkksError`], so on a cache fault the provider lowers
/// the error onto that channel and keeps the rich [`ServeFault`] aside; the server reclaims
/// it via [`Self::take_fault`] to attribute the failure precisely.
#[derive(Debug)]
pub struct CachedKeyProvider<'a> {
    cache: RefCell<&'a mut EvalKeyCache>,
    source: &'a dyn KeySource,
    tenant: TenantId,
    last_fault: RefCell<Option<ServeFault>>,
}

impl<'a> CachedKeyProvider<'a> {
    /// Binds a provider to one tenant's key source and the shared cache.
    pub fn new(cache: &'a mut EvalKeyCache, source: &'a dyn KeySource, tenant: TenantId) -> Self {
        Self {
            cache: RefCell::new(cache),
            source,
            tenant,
            last_fault: RefCell::new(None),
        }
    }

    /// The most recent cache fault this provider hit, if any (cleared on take).
    pub fn take_fault(&self) -> Option<ServeFault> {
        self.last_fault.borrow_mut().take()
    }
}

impl KeyProvider for CachedKeyProvider<'_> {
    fn key(&self, key: KeyRef) -> Result<Arc<SwitchingKey>> {
        let found = self.cache.borrow_mut().get(self.tenant, key, self.source);
        found.map_err(|fault| {
            let lowered = fault.to_ckks();
            *self.last_fault.borrow_mut() = Some(fault);
            lowered
        })
    }
}

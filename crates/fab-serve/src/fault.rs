//! Deterministic fault injection for the serving layer.
//!
//! Production fault tolerance is only trustworthy if the failure paths are *exercised*, and
//! failure paths are only testable if faults are reproducible. This module injects the
//! faults the serving layer claims to survive — corrupted key bytes, fetches that fail N
//! times before succeeding, fetch latency that blows deadlines — all seeded and replayable:
//!
//! - [`FaultSpec`] describes one tenant's fault behaviour (what to inject, how often).
//! - [`FaultyKeySource`] wraps a [`TenantKeyStore`] behind the [`KeySource`] seam, applying
//!   a spec to every fetch. The cache and server cannot tell it from a healthy source —
//!   faults arrive through the same interface real ones would.
//! - [`FakeClock`] replaces wall time with a counter so deadline pressure is exact: each
//!   clock read advances by a fixed step, and each injected fetch adds its configured
//!   latency. Tests assert on *which* requests miss deadlines, not just "some did".
//! - [`FaultPlan::random`] draws a whole-population fault assignment from a `u64` seed
//!   (ChaCha-based, bit-reproducible across runs and platforms).
//!
//! Mid-request evictions are injected separately through
//! [`EvalKeyCache::schedule_chaos_evictions`](crate::EvalKeyCache::schedule_chaos_evictions),
//! which evicts the LRU entry at chosen demand-access indices — those are survivable by
//! construction (the cache refetches), and the harness verifies outputs stay bitwise
//! identical when they happen.
//!
//! Crashes are not injected here. A serving process dies when its journal device does, so
//! every kill site is a disk-operation index: arm [`fab_store::SimDisk::arm_crash`] on the
//! journal's backend and recover a fresh server from
//! [`fab_store::SimDisk::crash_surface`] (`tests/simdisk_crash_sweep.rs` does so at every
//! index of a run).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use fab_ckks::{KeyRef, SwitchingKey};

use crate::server::ServeClock;
use crate::tenant::{FetchError, KeySource, TenantId, TenantKeyStore};

/// One tenant's injected fault behaviour. The default spec injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSpec {
    /// Flip this bit (index modulo the blob's bit length) in every fetched key blob before
    /// deserialisation. The header checksum guarantees [`SwitchingKey::from_bytes`] rejects
    /// the blob, so this surfaces as [`FetchError::Permanent`] with
    /// [`fab_ckks::CkksError::CorruptKey`].
    pub corrupt_bit: Option<u64>,
    /// Fail the first N fetches with [`FetchError::Transient`], then behave normally —
    /// the shape the cache's bounded retry loop exists for.
    pub fail_fetches: u32,
    /// Injected latency per fetch in microseconds, charged to the server's [`FakeClock`]
    /// (ignored under the wall clock). Combined with a per-request deadline this creates
    /// deterministic deadline pressure.
    pub fetch_latency_us: u64,
}

impl FaultSpec {
    /// A spec that corrupts every fetched blob at `bit`.
    pub fn corrupt(bit: u64) -> Self {
        Self {
            corrupt_bit: Some(bit),
            ..Self::default()
        }
    }

    /// A spec whose first `n` fetches fail transiently, then succeed.
    pub fn fail_then_recover(n: u32) -> Self {
        Self {
            fail_fetches: n,
            ..Self::default()
        }
    }

    /// A spec adding `us` microseconds of [`FakeClock`] latency to every fetch.
    pub fn slow(us: u64) -> Self {
        Self {
            fetch_latency_us: us,
            ..Self::default()
        }
    }

    /// Whether the spec injects anything at all.
    pub fn is_noop(&self) -> bool {
        *self == Self::default()
    }
}

/// A [`FaultSpec`] plus its mutable injection state (failures left to inject, fetches seen).
/// Lives in the server keyed by tenant; state persists across requests so "fail twice then
/// recover" spans request boundaries the way a real flaky backend would.
#[derive(Debug)]
pub struct TenantFault {
    spec: FaultSpec,
    remaining_failures: Cell<u32>,
    injected_fetches: Cell<u64>,
}

impl TenantFault {
    /// Fresh state for a spec.
    pub fn new(spec: FaultSpec) -> Self {
        Self {
            spec,
            remaining_failures: Cell::new(spec.fail_fetches),
            injected_fetches: Cell::new(0),
        }
    }

    /// The spec being injected.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Fetches this state has intercepted so far.
    pub fn injected_fetches(&self) -> u64 {
        self.injected_fetches.get()
    }

    /// Transient failures still to be injected.
    pub fn remaining_failures(&self) -> u32 {
        self.remaining_failures.get()
    }
}

/// A [`KeySource`] wrapping a healthy [`TenantKeyStore`] and applying a [`TenantFault`] to
/// every fetch. Metadata lookups ([`KeySource::key_size`]) are never faulted — size probes
/// model cheap local bookkeeping, fetches model the expensive faultable transfer.
#[derive(Debug)]
pub struct FaultyKeySource<'a> {
    inner: &'a TenantKeyStore,
    state: &'a TenantFault,
    clock: Option<&'a FakeClock>,
}

impl<'a> FaultyKeySource<'a> {
    /// Wraps `inner`, injecting per `state`; `clock` receives injected fetch latency.
    pub fn new(
        inner: &'a TenantKeyStore,
        state: &'a TenantFault,
        clock: Option<&'a FakeClock>,
    ) -> Self {
        Self {
            inner,
            state,
            clock,
        }
    }
}

impl KeySource for FaultyKeySource<'_> {
    fn key_size(&self, key: KeyRef) -> std::result::Result<usize, FetchError> {
        KeySource::key_size(self.inner, key)
    }

    fn fetch(&self, key: KeyRef) -> std::result::Result<Arc<SwitchingKey>, FetchError> {
        let state = self.state;
        state.injected_fetches.set(state.injected_fetches.get() + 1);
        let spec = state.spec;
        if spec.fetch_latency_us > 0 {
            if let Some(clock) = self.clock {
                clock.advance(spec.fetch_latency_us);
            }
        }
        let remaining = state.remaining_failures.get();
        if remaining > 0 {
            state.remaining_failures.set(remaining - 1);
            return Err(FetchError::Transient(format!(
                "injected fetch failure ({remaining} left) for {key:?}"
            )));
        }
        if let Some(bit) = spec.corrupt_bit {
            let healthy = self.inner.key_bytes(key).map_err(FetchError::Permanent)?;
            let mut corrupted = healthy.to_vec();
            let bit = bit % (corrupted.len() as u64 * 8);
            corrupted[(bit / 8) as usize] ^= 1 << (bit % 8);
            // The checksum makes any single-bit flip detectable, so this is Err for every
            // bit position; route the rejection through the same typed channel a genuinely
            // rotten store would produce.
            return SwitchingKey::from_bytes(&corrupted)
                .map(Arc::new)
                .map_err(FetchError::Permanent);
        }
        KeySource::fetch(self.inner, key)
    }
}

/// Deterministic microsecond clock for tests: every read advances time by a fixed step, and
/// fault injection adds latency explicitly via [`FakeClock::advance`]. Time passes only
/// when something observable happens, so deadline outcomes are exact functions of the
/// schedule rather than of host scheduling jitter.
#[derive(Debug, Default)]
pub struct FakeClock {
    now_us: AtomicU64,
    step_us: AtomicU64,
}

impl FakeClock {
    /// A clock starting at zero that advances `step_us` on every read.
    pub fn with_step(step_us: u64) -> Self {
        Self {
            now_us: AtomicU64::new(0),
            step_us: AtomicU64::new(step_us),
        }
    }

    /// Advances time by `us` (used by [`FaultyKeySource`] to charge fetch latency).
    pub fn advance(&self, us: u64) {
        self.now_us.fetch_add(us, Ordering::Relaxed);
    }

    /// The current reading without advancing.
    pub fn peek_us(&self) -> u64 {
        self.now_us.load(Ordering::Relaxed)
    }
}

impl ServeClock for FakeClock {
    fn now_us(&self) -> u64 {
        let step = self.step_us.load(Ordering::Relaxed);
        self.now_us.fetch_add(step, Ordering::Relaxed)
    }
}

/// A seeded whole-population fault assignment: which tenants are faulted and how. Same seed,
/// tenant list and rate → same plan, on every platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The drawn `(tenant, spec)` assignments (tenants without an entry are healthy).
    pub specs: Vec<(TenantId, FaultSpec)>,
}

impl FaultPlan {
    /// Draws a plan: each tenant is faulted with probability `fault_rate`, and a faulted
    /// tenant gets one of the three injection kinds (corrupt blob, fail-then-recover, slow
    /// fetch) uniformly, with drawn parameters.
    pub fn random(seed: u64, tenants: &[TenantId], fault_rate: f64) -> Self {
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let mut specs = Vec::new();
        for &tenant in tenants {
            if !rng.gen_bool(fault_rate) {
                continue;
            }
            let spec = match rng.gen_range(0u32..3) {
                0 => FaultSpec::corrupt(rng.gen_range(0u64..1 << 20)),
                1 => FaultSpec::fail_then_recover(rng.gen_range(1u32..5)),
                _ => FaultSpec::slow(rng.gen_range(50u64..500)),
            };
            specs.push((tenant, spec));
        }
        Self { specs }
    }

    /// The faulted tenants, in plan order.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.specs.iter().map(|(tenant, _)| *tenant).collect()
    }

    /// Installs every spec on a server (replacing its existing faults).
    pub fn apply(&self, server: &mut crate::FabServer) {
        server.clear_faults();
        for &(tenant, spec) in &self.specs {
            server.inject_fault(tenant, spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fake_clock_is_deterministic() {
        let clock = FakeClock::with_step(10);
        assert_eq!(clock.now_us(), 0);
        assert_eq!(clock.now_us(), 10);
        clock.advance(100);
        assert_eq!(clock.now_us(), 120);
        assert_eq!(clock.peek_us(), 130);
    }

    #[test]
    fn fault_plans_are_reproducible_and_seed_sensitive() {
        let tenants: Vec<TenantId> = (0..32).map(TenantId).collect();
        let a = FaultPlan::random(7, &tenants, 0.5);
        let b = FaultPlan::random(7, &tenants, 0.5);
        let c = FaultPlan::random(8, &tenants, 0.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.specs.is_empty(), "rate 0.5 over 32 tenants draws some");
        assert!(a.specs.len() < tenants.len(), "and spares some");
        assert!(FaultPlan::random(7, &tenants, 0.0).specs.is_empty());
        assert_eq!(
            FaultPlan::random(7, &tenants, 1.0).specs.len(),
            tenants.len()
        );
    }

    #[test]
    fn fail_then_recover_counts_down() {
        let state = TenantFault::new(FaultSpec::fail_then_recover(2));
        assert_eq!(state.remaining_failures(), 2);
        assert!(!state.spec().is_noop());
        assert!(FaultSpec::default().is_noop());
    }
}

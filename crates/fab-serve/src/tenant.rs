//! Tenants and their serialized key material.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use fab_ckks::{CkksError, GaloisKeys, KeyRef, RelinearizationKey, Result, SwitchingKey};

/// One fetch attempt's failure against a [`KeySource`], classified for the cache's bounded
/// retry loop: transient failures are retried with counted backoff, permanent ones are not
/// (corrupt bytes are additionally quarantined).
#[derive(Debug, Clone, PartialEq)]
pub enum FetchError {
    /// The attempt failed for a reason that may not recur (flaky transport, injected fault).
    Transient(String),
    /// The attempt failed in a way retrying the same source cannot fix (missing key,
    /// corrupt blob).
    Permanent(CkksError),
}

/// Where serialized key bytes come from — the seam the fault-injection harness wraps.
///
/// [`TenantKeyStore`] is the production implementation (in-memory serialized blobs, the HBM
/// stand-in); [`crate::fault::FaultyKeySource`] wraps one to inject corrupt bytes,
/// fail-N-times fetches and fetch latency without the cache or server knowing.
pub trait KeySource: fmt::Debug {
    /// Serialized size of one key in bytes (metadata only; never faulted).
    ///
    /// # Errors
    ///
    /// [`FetchError::Permanent`] when the source holds no such key.
    fn key_size(&self, key: KeyRef) -> std::result::Result<usize, FetchError>;

    /// Deserializes one key (a cold fetch). Each call is one *attempt*; the cache retries
    /// transient failures up to its configured bound.
    ///
    /// # Errors
    ///
    /// [`FetchError::Transient`] for failures worth retrying, [`FetchError::Permanent`] for
    /// missing keys and blobs rejected by [`SwitchingKey::from_bytes`].
    fn fetch(&self, key: KeyRef) -> std::result::Result<Arc<SwitchingKey>, FetchError>;
}

impl KeySource for TenantKeyStore {
    fn key_size(&self, key: KeyRef) -> std::result::Result<usize, FetchError> {
        TenantKeyStore::key_size(self, key).map_err(FetchError::Permanent)
    }

    fn fetch(&self, key: KeyRef) -> std::result::Result<Arc<SwitchingKey>, FetchError> {
        TenantKeyStore::fetch(self, key).map_err(FetchError::Permanent)
    }
}

/// A tenant identity (dense small integers; the registry orders tenants by it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// One tenant's evaluation keys in serialized form — the stand-in for the HBM/backing store
/// the accelerator streams keys from. Every cache miss deserializes from these bytes, so a
/// cache-cold execution genuinely re-materialises key polynomials rather than handing back a
/// hidden resident copy.
#[derive(Debug, Clone)]
pub struct TenantKeyStore {
    relin_bytes: Vec<u8>,
    galois_bytes: BTreeMap<u64, Vec<u8>>,
}

impl TenantKeyStore {
    /// Serializes a tenant's key material into a store.
    pub fn new(rlk: &RelinearizationKey, galois: &GaloisKeys) -> Self {
        let galois_bytes = galois
            .elements()
            .into_iter()
            .map(|element| {
                let key = galois.get(element).expect("elements() lists held keys");
                (element, key.to_bytes())
            })
            .collect();
        Self {
            relin_bytes: rlk.key.to_bytes(),
            galois_bytes,
        }
    }

    /// The Galois elements this tenant holds keys for, ascending.
    pub fn galois_elements(&self) -> Vec<u64> {
        self.galois_bytes.keys().copied().collect()
    }

    /// Number of keys held (relinearisation plus Galois).
    pub fn key_count(&self) -> usize {
        1 + self.galois_bytes.len()
    }

    /// The serialized bytes of one key.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] when the tenant holds no key for `key`.
    pub fn key_bytes(&self, key: KeyRef) -> Result<&[u8]> {
        match key {
            KeyRef::Relin => Ok(&self.relin_bytes),
            KeyRef::Galois(element) => self
                .galois_bytes
                .get(&element)
                .map(Vec::as_slice)
                .ok_or_else(|| key.missing()),
        }
    }

    /// Serialized size of one key in bytes.
    ///
    /// # Errors
    ///
    /// Same as [`Self::key_bytes`].
    pub fn key_size(&self, key: KeyRef) -> Result<usize> {
        self.key_bytes(key).map(<[u8]>::len)
    }

    /// Total serialized size of the tenant's full key set.
    pub fn total_bytes(&self) -> usize {
        self.relin_bytes.len() + self.galois_bytes.values().map(Vec::len).sum::<usize>()
    }

    /// Deserializes one key from the store (a cold fetch).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] for an absent key and
    /// [`CkksError::CorruptKey`] for bytes rejected by validation.
    pub fn fetch(&self, key: KeyRef) -> Result<Arc<SwitchingKey>> {
        SwitchingKey::from_bytes(self.key_bytes(key)?).map(Arc::new)
    }
}

/// The population of tenants the server knows about.
#[derive(Debug, Clone, Default)]
pub struct TenantRegistry {
    stores: BTreeMap<TenantId, TenantKeyStore>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a tenant's key store.
    pub fn register(&mut self, tenant: TenantId, store: TenantKeyStore) {
        self.stores.insert(tenant, store);
    }

    /// The key store of one tenant.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] for an unknown tenant.
    pub fn store(&self, tenant: TenantId) -> Result<&TenantKeyStore> {
        self.stores
            .get(&tenant)
            .ok_or_else(|| CkksError::MissingKey {
                description: format!("key store for {tenant}"),
            })
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// The registered tenants, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.stores.keys().copied().collect()
    }

    /// Total serialized size of every tenant's key set — the population-scale "keys are the
    /// dataset" number a cache budget is compared against.
    pub fn total_bytes(&self) -> usize {
        self.stores.values().map(TenantKeyStore::total_bytes).sum()
    }
}

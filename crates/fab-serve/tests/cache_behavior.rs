//! Deterministic counter and eviction behaviour of the evaluation-key cache, pinned the way
//! `op_accounting` pins NTT and byte counts: every hit/miss/eviction below is asserted exactly.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{switching_key_serialized_bytes, CkksContext, CkksParams, KeyGenerator, SecretKey};
use fab_serve::{EvalKeyCache, KeyRef, TenantId, TenantKeyStore};

fn store(seed: u64) -> (Arc<CkksContext>, TenantKeyStore, usize) {
    let params = CkksParams {
        log_n: 4,
        scale_bits: 40,
        first_prime_bits: 50,
        max_level: 2,
        dnum: 1,
        secret_hamming_weight: Some(8),
        ..CkksParams::testing()
    };
    let key_bytes = switching_key_serialized_bytes(&params);
    let ctx = CkksContext::new_arc(params).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let keygen = KeyGenerator::new(ctx.clone(), SecretKey::generate(&ctx, &mut rng));
    let rlk = keygen.relinearization_key(&mut rng);
    let keys = keygen
        .galois_keys(&[1, 2], true, &mut rng)
        .expect("galois keys");
    (ctx, TenantKeyStore::new(&rlk, &keys), key_bytes)
}

#[test]
fn store_sizes_match_the_closed_form() {
    let (_, store, key_bytes) = store(1);
    assert_eq!(store.key_size(KeyRef::Relin).unwrap(), key_bytes);
    for element in store.galois_elements() {
        assert_eq!(store.key_size(KeyRef::Galois(element)).unwrap(), key_bytes);
    }
    // 1 relin + 2 rotations + conjugation.
    assert_eq!(store.key_count(), 4);
    assert_eq!(store.total_bytes(), 4 * key_bytes);
}

#[test]
fn demand_counters_are_exact() {
    let (_, store, key_bytes) = store(2);
    let tenant = TenantId(0);
    let mut cache = EvalKeyCache::new(2 * key_bytes);

    // Cold miss, then hit, for two keys that both fit.
    cache.get(tenant, KeyRef::Relin, &store).unwrap();
    cache.get(tenant, KeyRef::Relin, &store).unwrap();
    let rot = KeyRef::Galois(store.galois_elements()[0]);
    cache.get(tenant, rot, &store).unwrap();
    cache.get(tenant, rot, &store).unwrap();

    let stats = cache.stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.uncached_fetches, 0);
    assert_eq!(stats.bytes_fetched, 2 * key_bytes as u64);
    assert_eq!(cache.resident_bytes(), 2 * key_bytes);
    assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
}

#[test]
fn lru_eviction_prefers_the_oldest_entry() {
    let (_, store, key_bytes) = store(3);
    let tenant = TenantId(0);
    let elements = store.galois_elements();
    let (a, b, c) = (
        KeyRef::Galois(elements[0]),
        KeyRef::Galois(elements[1]),
        KeyRef::Galois(elements[2]),
    );
    // Room for exactly two keys.
    let mut cache = EvalKeyCache::new(2 * key_bytes);
    cache.get(tenant, a, &store).unwrap();
    cache.get(tenant, b, &store).unwrap();
    cache.get(tenant, a, &store).unwrap(); // refresh `a`: `b` is now LRU
    cache.get(tenant, c, &store).unwrap(); // evicts `b`
    assert!(cache.contains(tenant, a));
    assert!(!cache.contains(tenant, b));
    assert!(cache.contains(tenant, c));
    assert_eq!(cache.stats().evictions, 1);
}

#[test]
fn oversized_keys_are_served_uncached() {
    let (_, store, key_bytes) = store(4);
    let tenant = TenantId(0);
    let mut cache = EvalKeyCache::new(key_bytes - 1);
    for _ in 0..3 {
        cache.get(tenant, KeyRef::Relin, &store).unwrap();
    }
    let stats = cache.stats();
    assert_eq!(stats.uncached_fetches, 3);
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.bytes_fetched, 3 * key_bytes as u64);
    assert!(cache.is_empty());
    assert_eq!(stats.hit_rate(), 0.0);

    // Prefetch refuses oversized keys without fetching anything.
    assert!(!cache.prefetch(tenant, KeyRef::Relin, &store).unwrap());
    assert_eq!(cache.stats().bytes_fetched, 3 * key_bytes as u64);
}

#[test]
fn prefetched_entries_count_as_prefetch_hits_once() {
    let (_, store, _) = store(5);
    let tenant = TenantId(0);
    let mut cache = EvalKeyCache::new(store.total_bytes());
    assert!(cache.prefetch(tenant, KeyRef::Relin, &store).unwrap());
    assert!(cache.prefetch(tenant, KeyRef::Relin, &store).unwrap()); // already resident: no-op
    cache.get(tenant, KeyRef::Relin, &store).unwrap(); // prefetch hit
    cache.get(tenant, KeyRef::Relin, &store).unwrap(); // plain hit
    let stats = cache.stats();
    assert_eq!(stats.prefetches, 1);
    assert_eq!(stats.prefetch_hits, 1);
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.hit_rate(), 1.0);
}

#[test]
fn tenants_are_isolated_entries() {
    let (_, store_a, key_bytes) = store(6);
    let (_, store_b, _) = store(7);
    let mut cache = EvalKeyCache::new(4 * key_bytes);
    cache.get(TenantId(0), KeyRef::Relin, &store_a).unwrap();
    cache.get(TenantId(1), KeyRef::Relin, &store_b).unwrap();
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.stats().misses, 2);
    // The same key ref under another tenant is a distinct entry, not a hit.
    assert_eq!(cache.stats().hits, 0);
}

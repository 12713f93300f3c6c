//! The serving-layer correctness gate: **cache state must never change a ciphertext bit**.
//!
//! The same program over the same input is executed four ways — (a) every key resident
//! ([`ResidentKeyProvider`]), (b) a zero-budget cache where every demand access is an
//! uncached fetch that deserializes from the tenant store, (c) a deliberately undersized
//! cache with a second tenant thrashing it between ops so evictions interleave with demand
//! accesses, and (d) a fully prefetched cache where demand accesses only ever hit — and the
//! outputs must agree **bitwise** (ciphertext parts and decryption alike), across random
//! `(N, L, dnum)` configurations, programs and eviction interleavings.
//!
//! The recorded trace of the execution is also pinned op-for-op against [`Program::plan`],
//! the analytic trace the FAB cost model consumes, and the keys the resident provider was
//! asked for against [`Program::key_refs`], the planned key stream the prefetcher consumes.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{
    Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator,
    ResidentKeyProvider, SecretKey,
};
use fab_serve::{
    CachedKeyProvider, EvalKeyCache, KeyRef, Prefetcher, Program, TenantId, TenantKeyStore,
};
use fab_trace::RecordingSink;

#[path = "../../fab-ckks/tests/support/recording_keys.rs"]
mod recording_keys;
use recording_keys::RecordingKeys;

const ROTATIONS: [usize; 2] = [1, 3];

struct Fixture {
    ctx: Arc<CkksContext>,
    decryptor: Decryptor,
    resident: ResidentKeyProvider,
    store: TenantKeyStore,
    start: Ciphertext,
}

fn fixture(log_n: usize, max_level: usize, dnum: usize, seed: u64) -> Fixture {
    let params = CkksParams {
        log_n,
        scale_bits: 40,
        first_prime_bits: 50,
        max_level,
        dnum,
        secret_hamming_weight: Some((1usize << log_n).min(32)),
        ..CkksParams::testing()
    };
    let ctx = CkksContext::new_arc(params).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let pk = keygen.public_key(&mut rng);
    let rlk = keygen.relinearization_key(&mut rng);
    let keys = keygen
        .galois_keys(&ROTATIONS, true, &mut rng)
        .expect("galois keys");
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let decryptor = Decryptor::new(ctx.clone(), sk);
    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| ((i as f64 + 1.0) * 0.17).cos())
        .collect();
    let pt = encoder
        .encode_real(&values, scale, ctx.params().max_level)
        .expect("encode");
    let start = encryptor.encrypt(&pt, &mut rng).expect("encrypt");
    let store = TenantKeyStore::new(&rlk, &keys);
    Fixture {
        ctx,
        decryptor,
        resident: ResidentKeyProvider::new(rlk, keys),
        store,
        start,
    }
}

/// Executes `program` one op at a time through a cached provider, letting `thrash` interleave
/// a second tenant's demand access between ops (which can evict this tenant's keys at any
/// point of the request). Chaining single-op programs is exactly `Program::execute` unrolled.
fn execute_with_interleaved_eviction(
    evaluator: &Evaluator,
    cache: &mut EvalKeyCache,
    fixture: &Fixture,
    other: &TenantKeyStore,
    program: &Program,
    thrash: &[bool],
) -> Ciphertext {
    let tenant = TenantId(0);
    let intruder = TenantId(1);
    let mut ct = fixture.start.clone();
    for (i, &op) in program.ops().iter().enumerate() {
        let single = Program::new(vec![op]);
        {
            let provider = CachedKeyProvider::new(cache, &fixture.store, tenant);
            ct = single
                .execute(evaluator, &provider, &ct)
                .expect("execute op");
        }
        if thrash.get(i).copied().unwrap_or(false) {
            cache
                .get(intruder, KeyRef::Relin, other)
                .expect("intruder access");
        }
    }
    ct
}

fn assert_bitwise_equal(label: &str, f: &Fixture, got: &Ciphertext, want: &Ciphertext) {
    assert_eq!(got.c0(), want.c0(), "c0 diverged: {label}");
    assert_eq!(got.c1(), want.c1(), "c1 diverged: {label}");
    assert_eq!(got.level(), want.level(), "level diverged: {label}");
    assert_eq!(
        got.scale().to_bits(),
        want.scale().to_bits(),
        "scale diverged: {label}"
    );
    let dec_got = f.decryptor.decrypt(got).expect("decrypt");
    let dec_want = f.decryptor.decrypt(want).expect("decrypt reference");
    assert_eq!(
        dec_got.poly(),
        dec_want.poly(),
        "decryption diverged: {label}"
    );
}

proptest! {
    // Context + keygen dominate; a handful of cases still sweeps ring sizes, chain lengths,
    // digit shapes, programs and eviction interleavings.
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn prop_cache_state_never_changes_a_ciphertext_bit(
        log_n in 3usize..8,
        max_level in 1usize..4,
        dnum_seed in 1usize..5,
        seed in any::<u64>(),
        prog_seed in any::<u64>(),
        len in 1usize..9,
        budget_keys in 1usize..4,
        thrash in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let dnum = 1 + dnum_seed % (max_level + 1);
        let f = fixture(log_n, max_level, dnum, seed);
        let other_store = fixture(log_n, max_level, dnum, seed ^ 0xA5A5_A5A5).store;
        let program = Program::random(prog_seed, len, &ROTATIONS);
        let start_level = f.ctx.params().max_level;
        let refs = program
            .key_refs(&f.ctx, start_level)
            .expect("planned key stream");

        // (a) Reference: every key resident, recorded through a sink, every key asked for
        // logged.
        let sink = RecordingSink::shared("serve");
        let evaluator = Evaluator::with_sink(f.ctx.clone(), sink.clone());
        let demanded = RecordingKeys::new(&f.resident);
        let reference = program
            .execute(&evaluator, &demanded, &f.start)
            .expect("resident execution");

        // Demanded == planned: the provider was asked for exactly the planner's key stream —
        // every count below that is stated in `refs` is stated in what execution demands.
        prop_assert_eq!(&demanded.take(), &refs, "demanded keys diverged from the plan");

        // The recorded trace matches the planned trace op-for-op — the prefetcher and the
        // FAB cost model price exactly what execution performs.
        let recorded = sink.take();
        let planned = program
            .plan(&f.ctx, start_level, f.ctx.params().default_scale(), "serve")
            .expect("plan");
        prop_assert_eq!(&recorded.ops, &planned.ops, "recorded trace diverged from plan");

        // (b) Zero-budget cache: every access misses admission and is served uncached,
        // deserializing from the tenant store each time.
        let mut cold = EvalKeyCache::new(0);
        {
            let provider = CachedKeyProvider::new(&mut cold, &f.store, TenantId(0));
            let output = program
                .execute(&evaluator, &provider, &f.start)
                .expect("zero-budget execution");
            assert_bitwise_equal("zero-budget cache", &f, &output, &reference);
        }
        let stats = cold.stats();
        prop_assert_eq!(stats.hits, 0);
        prop_assert_eq!(stats.misses, 0);
        prop_assert_eq!(stats.uncached_fetches, refs.len() as u64);
        prop_assert!(cold.is_empty());

        // (c) Undersized cache with a second tenant thrashing it mid-request: evictions
        // interleave with demand accesses at random points.
        let per_key = f.store.key_size(KeyRef::Relin).expect("key size");
        let mut small = EvalKeyCache::new(budget_keys * per_key);
        let output = execute_with_interleaved_eviction(
            &evaluator, &mut small, &f, &other_store, &program, &thrash,
        );
        assert_bitwise_equal("evicting cache", &f, &output, &reference);
        prop_assert_eq!(
            small.stats().demand_accesses(),
            refs.len() as u64 + thrash[..len.min(thrash.len())]
                .iter()
                .filter(|&&t| t)
                .count() as u64,
        );

        // (d) Fully prefetched cache: demand accesses only ever hit, and hits that consume a
        // prefetched entry are attributed to the prefetcher.
        let mut warm = EvalKeyCache::new(f.store.total_bytes());
        let prefetcher = Prefetcher::new(f.store.key_count());
        let resident_now = prefetcher
            .warm(&mut warm, TenantId(0), &f.store, &refs)
            .expect("warm");
        let distinct: std::collections::BTreeSet<_> = refs.iter().copied().collect();
        prop_assert_eq!(resident_now, distinct.len());
        {
            let provider = CachedKeyProvider::new(&mut warm, &f.store, TenantId(0));
            let output = program
                .execute(&evaluator, &provider, &f.start)
                .expect("prefetched execution");
            assert_bitwise_equal("prefetched cache", &f, &output, &reference);
        }
        let stats = warm.stats();
        prop_assert_eq!(stats.misses, 0);
        prop_assert_eq!(stats.uncached_fetches, 0);
        prop_assert_eq!(stats.hits, refs.len() as u64);
        prop_assert_eq!(stats.prefetch_hits, distinct.len() as u64);
    }
}

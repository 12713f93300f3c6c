//! End-to-end serving: FIFO drain over multiple tenants, phase-labelled traces, prefetch
//! lifting the hit rate, and outputs that never depend on the cache configuration.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{
    key_set_bytes, Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator,
    GaloisKeys, KeyGenerator, RelinearizationKey, SecretKey,
};
use fab_serve::{
    FabServer, Program, Request, RequestOutcome, ServeFault, ServedRequest, ServerConfig, TenantId,
};
use fab_trace::{phase, RecordingSink};

const ROTATIONS: [usize; 2] = [1, 3];

struct Tenant {
    rlk: RelinearizationKey,
    keys: GaloisKeys,
    decryptor: Decryptor,
    input: Ciphertext,
}

fn make_params() -> CkksParams {
    CkksParams::builder()
        .log_n(5)
        .scale_bits(40)
        .first_prime_bits(50)
        .max_level(2)
        .dnum(1)
        .secret_hamming_weight(Some(16))
        .build()
        .expect("valid small parameters")
}

fn make_tenant(ctx: &Arc<CkksContext>, seed: u64) -> Tenant {
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let sk = SecretKey::generate(ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let pk = keygen.public_key(&mut rng);
    let rlk = keygen.relinearization_key(&mut rng);
    let keys = keygen
        .galois_keys(&ROTATIONS, true, &mut rng)
        .expect("galois keys");
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| ((i as f64 + seed as f64) * 0.13).sin())
        .collect();
    let pt = encoder
        .encode_real(&values, scale, ctx.params().max_level)
        .expect("encode");
    let input = encryptor.encrypt(&pt, &mut rng).expect("encrypt");
    Tenant {
        rlk,
        keys,
        decryptor: Decryptor::new(ctx.clone(), sk),
        input,
    }
}

fn run_mix(ctx: &Arc<CkksContext>, config: ServerConfig) -> (Vec<Ciphertext>, FabServer) {
    let tenants: Vec<Tenant> = (0..3).map(|t| make_tenant(ctx, 100 + t)).collect();
    let mut server = FabServer::new(Evaluator::new(ctx.clone()), config);
    for (t, tenant) in tenants.iter().enumerate() {
        server.register_tenant(TenantId(t as u32), &tenant.rlk, &tenant.keys);
    }
    // Interleaved tenants, repeated programs — the workload the key cache exists for.
    for round in 0..3u64 {
        for (t, tenant) in tenants.iter().enumerate() {
            server.submit(Request {
                tenant: TenantId(t as u32),
                program: Program::random(7 + round, 5, &ROTATIONS),
                input: tenant.input.clone(),
            });
        }
    }
    assert_eq!(server.queue_len(), 9);
    let served: Vec<ServedRequest> = server
        .run()
        .into_iter()
        .map(|outcome| match outcome {
            RequestOutcome::Completed(served) => served,
            other => panic!("fault-free mix must complete every request: {other:?}"),
        })
        .collect();
    assert_eq!(server.queue_len(), 0);
    assert_eq!(served.len(), 9);
    // FIFO: request i belongs to tenant i % 3.
    for (i, s) in served.iter().enumerate() {
        assert_eq!(s.report.tenant, TenantId((i % 3) as u32));
        assert_eq!(s.report.ops, 5);
        assert_eq!(
            s.report.total_us,
            s.report.queue_us + s.report.prefetch_us + s.report.execute_us
        );
    }
    (served.into_iter().map(|s| s.output).collect(), server)
}

#[test]
fn serving_is_bitwise_identical_across_cache_configs_and_prefetch_lifts_hit_rate() {
    let ctx = CkksContext::new_arc(make_params()).expect("context");
    let per_set = key_set_bytes(ctx.params(), ROTATIONS.len() + 1);

    // Generous cache with prefetch, starved cache without: outputs must agree bitwise.
    let (outputs_warm, server_warm) = run_mix(
        &ctx,
        ServerConfig {
            cache_budget_bytes: 3 * per_set,
            prefetch: true,
            lookahead: 8,
            ..ServerConfig::default()
        },
    );
    let (outputs_cold, server_cold) = run_mix(
        &ctx,
        ServerConfig {
            cache_budget_bytes: 0,
            prefetch: false,
            lookahead: 0,
            ..ServerConfig::default()
        },
    );
    for (w, c) in outputs_warm.iter().zip(&outputs_cold) {
        assert_eq!(w.c0(), c.c0());
        assert_eq!(w.c1(), c.c1());
    }
    // The decrypted results are sane per tenant (same secret key decrypts both runs).
    let tenants: Vec<Tenant> = (0..3).map(|t| make_tenant(&ctx, 100 + t)).collect();
    for (i, output) in outputs_warm.iter().enumerate() {
        let dec = tenants[i % 3].decryptor.decrypt(output).expect("decrypt");
        let dec_cold = tenants[i % 3]
            .decryptor
            .decrypt(&outputs_cold[i])
            .expect("decrypt cold");
        assert_eq!(dec.poly(), dec_cold.poly());
    }

    // All three tenants' working sets fit: after the first touch of each key, everything hits.
    let warm = server_warm.cache_stats();
    let cold = server_cold.cache_stats();
    assert!(warm.hit_rate() > 0.8, "warm hit rate {}", warm.hit_rate());
    assert_eq!(warm.uncached_fetches, 0, "a full budget admits every key");
    assert_eq!(cold.hit_rate(), 0.0);
    assert!(
        warm.prefetch_hits > 0,
        "prefetch never served a demand access"
    );
    assert!(cold.uncached_fetches > 0);
    // Latency is recorded for every request.
    assert_eq!(server_warm.histogram().len(), 9);
    assert!(server_warm.histogram().p99() >= server_warm.histogram().p50());
}

#[test]
fn served_requests_mark_serving_phases_in_the_recorded_trace() {
    let ctx = CkksContext::new_arc(make_params()).expect("context");
    let tenant = make_tenant(&ctx, 7);
    let sink = RecordingSink::shared("serving");
    let mut server = FabServer::new(
        Evaluator::with_sink(ctx.clone(), sink.clone()),
        ServerConfig {
            cache_budget_bytes: key_set_bytes(ctx.params(), ROTATIONS.len() + 1),
            prefetch: true,
            lookahead: 8,
            ..ServerConfig::default()
        },
    );
    server.register_tenant(TenantId(0), &tenant.rlk, &tenant.keys);
    server.submit(Request {
        tenant: TenantId(0),
        program: Program::random(3, 4, &ROTATIONS),
        input: tenant.input.clone(),
    });
    let outcomes = server.run();
    assert!(outcomes[0].completed().is_some(), "request completes");

    let trace = sink.take();
    let labels = trace.phase_labels();
    assert_eq!(
        labels,
        vec![
            phase::SERVE_QUEUE,
            phase::SERVE_PREFETCH,
            phase::SERVE_EXECUTE
        ]
    );
    // Every recorded op happened during execution, none during queueing or prefetch.
    assert!(trace.phase_ops(phase::SERVE_QUEUE).unwrap().is_empty());
    assert!(trace.phase_ops(phase::SERVE_PREFETCH).unwrap().is_empty());
    assert_eq!(
        trace.phase_ops(phase::SERVE_EXECUTE).unwrap().len(),
        trace.len()
    );
}

#[test]
fn an_unknown_tenant_fails_in_its_own_domain_and_the_batch_continues() {
    let ctx = CkksContext::new_arc(make_params()).expect("context");
    let tenant = make_tenant(&ctx, 9);
    let mut server = FabServer::new(
        Evaluator::new(ctx.clone()),
        ServerConfig {
            cache_budget_bytes: 1 << 20,
            prefetch: false,
            lookahead: 0,
            ..ServerConfig::default()
        },
    );
    server.register_tenant(TenantId(0), &tenant.rlk, &tenant.keys);
    let bad = server.submit(Request {
        tenant: TenantId(42),
        program: Program::new(vec![]),
        input: tenant.input.clone(),
    });
    let good = server.submit(Request {
        tenant: TenantId(0),
        program: Program::new(vec![]),
        input: tenant.input,
    });
    let outcomes = server.run();
    assert_eq!(server.queue_len(), 0, "one drain settles the whole batch");
    assert_eq!(outcomes.len(), 2);
    // The unknown tenant fails inside its own domain, fully attributed...
    let error = outcomes[0].error().expect("unknown tenant fails");
    assert_eq!(error.request, bad);
    assert_eq!(error.tenant, TenantId(42));
    assert!(matches!(error.fault, ServeFault::UnknownTenant));
    assert!(!error.is_transient());
    // ...and the valid request in the same batch is served to completion.
    let served = outcomes[1].completed().expect("valid request completes");
    assert_eq!(served.report.request, good);
    assert_eq!(served.report.tenant, TenantId(0));
    let counters = server.counters();
    assert_eq!(counters.completed, 1);
    assert_eq!(counters.failed, 1);
    assert_eq!(counters.shed, 0);
}

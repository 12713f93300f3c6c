//! Fixtures shared by the serving integration suites: a small context, keyed tenants, a
//! fake-clocked server, a seeded request stream, and the crash → recover → replay checker.
//! Each suite compiles this module for itself and uses a subset of it.

#![allow(dead_code)]

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{
    key_set_bytes, Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, GaloisKeys,
    KeyGenerator, RelinearizationKey, SecretKey,
};
use fab_serve::{
    DurableJournal, FabServer, FakeClock, Program, Request, RequestId, RequestOutcome, ServeFault,
    ServeOp, ServerConfig, TenantId,
};
use fab_store::{CrashSurface, SimDisk, StorageBackend, SyncPolicy};

pub const ROTATIONS: [usize; 2] = [1, 3];
/// Small on purpose: a 4-request workload crosses several segment boundaries.
pub const ROTATE_AFTER: u64 = 4;

pub struct Tenant {
    pub rlk: RelinearizationKey,
    pub keys: GaloisKeys,
    pub input: Ciphertext,
}

pub fn make_ctx_with_scale(scale_bits: u32) -> Arc<CkksContext> {
    let params = CkksParams::builder()
        .log_n(5)
        .scale_bits(scale_bits)
        .first_prime_bits(50)
        .max_level(2)
        .dnum(1)
        .secret_hamming_weight(Some(16))
        .build()
        .expect("valid small parameters");
    CkksContext::new_arc(params).expect("context")
}

pub fn make_ctx() -> Arc<CkksContext> {
    make_ctx_with_scale(40)
}

pub fn make_tenant(ctx: &Arc<CkksContext>, seed: u64) -> Tenant {
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let sk = SecretKey::generate(ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk);
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
    Tenant { rlk, keys, input }
}

/// A cache that holds every key of `tenants` tenants, prefetch on.
pub fn make_config(ctx: &Arc<CkksContext>, tenants: usize) -> ServerConfig {
    ServerConfig {
        cache_budget_bytes: tenants * key_set_bytes(ctx.params(), ROTATIONS.len() + 1),
        prefetch: true,
        lookahead: 8,
        ..ServerConfig::default()
    }
}

pub fn make_server(ctx: &Arc<CkksContext>, tenants: &[Tenant], config: ServerConfig) -> FabServer {
    let mut server = FabServer::new(Evaluator::new(ctx.clone()), config);
    server.use_fake_clock(Arc::new(FakeClock::with_step(1)));
    for (t, tenant) in tenants.iter().enumerate() {
        server.register_tenant(TenantId(t as u32), &tenant.rlk, &tenant.keys);
    }
    server
}

/// A program that is guaranteed to demand at least one switching key (the leading
/// rotation), so fetch-path faults always actually trigger.
pub fn keyed_program(seed: u64, len: usize) -> Program {
    let mut ops = vec![ServeOp::Rotate(1)];
    ops.extend(Program::random(seed, len, &ROTATIONS).ops().iter().copied());
    Program::new(ops)
}

pub fn submit_stream(
    server: &mut FabServer,
    tenants: &[Tenant],
    rounds: u64,
    prog_seed: u64,
    len: usize,
) {
    for round in 0..rounds {
        for (t, tenant) in tenants.iter().enumerate() {
            server.submit(Request {
                tenant: TenantId(t as u32),
                program: keyed_program(prog_seed + round, len),
                input: tenant.input.clone(),
            });
        }
    }
}

/// Outcome equivalence across a crash boundary. Identity and result bits must match; a
/// settled failure is the journaled [`ServeFault::Replayed`] carrying the original fault's
/// classification and rendered description (the structured payload does not survive a
/// crash), while a re-executed failure reproduces the original typed fault exactly.
/// Timings are excluded: the recovered run measures its own clock.
pub fn assert_equivalent(label: &str, got: &RequestOutcome, want: &RequestOutcome) {
    assert_eq!(got.request(), want.request(), "id diverged: {label}");
    assert_eq!(got.tenant(), want.tenant(), "tenant diverged: {label}");
    match (got, want) {
        (RequestOutcome::Completed(g), RequestOutcome::Completed(w)) => {
            assert_eq!(g.output.c0(), w.output.c0(), "c0 diverged: {label}");
            assert_eq!(g.output.c1(), w.output.c1(), "c1 diverged: {label}");
            assert_eq!(g.report.ops, w.report.ops, "op count diverged: {label}");
        }
        (RequestOutcome::Failed(g), RequestOutcome::Failed(w)) => match &g.fault {
            ServeFault::Replayed { class, description } => {
                assert_eq!(*class, w.fault.class(), "class diverged: {label}");
                assert_eq!(
                    *description,
                    w.fault.to_string(),
                    "description diverged: {label}"
                );
            }
            fault => assert_eq!(fault, &w.fault, "fault diverged: {label}"),
        },
        (
            RequestOutcome::Shed { queue_depth: g, .. },
            RequestOutcome::Shed { queue_depth: w, .. },
        ) => assert_eq!(g, w, "shed depth diverged: {label}"),
        (g, w) => panic!("outcome shape diverged: {label}: {g:?} vs {w:?}"),
    }
}

/// The process under test: a server journaling to `backend` under `policy`, `arm`ed with
/// its fault schedule, fed by `submit` and drained. Returns it with the outcomes `run`
/// handed back (lost, if the process is then declared dead). `None` if the disk died while
/// the journal was being created — possible only when a crash is armed.
pub fn run_journaled(
    ctx: &Arc<CkksContext>,
    tenants: &[Tenant],
    config: ServerConfig,
    backend: Box<dyn StorageBackend + Send>,
    policy: SyncPolicy,
    arm: &dyn Fn(&mut FabServer),
    submit: &dyn Fn(&mut FabServer),
) -> Option<(FabServer, Vec<RequestOutcome>)> {
    let mut server = make_server(ctx, tenants, config);
    let journal = DurableJournal::create(backend, ctx.clone(), policy, ROTATE_AFTER).ok()?;
    server.attach_durable_journal(journal);
    arm(&mut server);
    submit(&mut server);
    let outcomes = server.run();
    Some((server, outcomes))
}

/// The crash → recover → replay cycle for one drawn crash surface, checked against the
/// uninterrupted `reference` run: a fresh server (same tenants, same `arm`ed faults)
/// recovers from what survived and drains its queue. Returns the requests recovery
/// re-admitted and the bytes it dropped from a damaged tail.
///
/// A crash before an admission is durable loses that request (and under write-ahead
/// discipline every one submitted after it): the journal never acknowledged them, so
/// recovery legitimately knows nothing about them. Everything the journal *does* know about
/// must replay bitwise identical to the uninterrupted run, as a prefix of the submission
/// order — losing request k but knowing about k+1 would mean an admission was acknowledged
/// out of order.
#[allow(clippy::too_many_arguments)]
pub fn check_surface(
    ctx: &Arc<CkksContext>,
    tenants: &[Tenant],
    config: ServerConfig,
    reference: &[RequestOutcome],
    policy: SyncPolicy,
    arm: &dyn Fn(&mut FabServer),
    (surface, drawn): (SimDisk, CrashSurface),
    label: &str,
) -> (Vec<RequestId>, usize) {
    let mut recovered = make_server(ctx, tenants, config);
    arm(&mut recovered);
    let report = recovered
        .recover_from_store(Box::new(surface), policy, ROTATE_AFTER)
        .unwrap_or_else(|e| panic!("{label}: legal crash damage must never be corruption: {e}"));
    assert_eq!(
        report.duplicate_starts, 0,
        "{label}: one process starts a request at most once"
    );
    if policy == SyncPolicy::Always {
        // Every record is fsynced before the next is written, so the only bytes recovery can
        // have to drop are those of a write the power loss itself tore.
        assert!(
            report.torn_bytes == 0 || drawn.torn_units > 0,
            "{label}: dropped {} bytes of a surface that tore nothing: {drawn:?}",
            report.torn_bytes
        );
    }
    let settled_completed = report
        .settled
        .iter()
        .filter(|o| o.completed().is_some())
        .count() as u64;
    let mut outcomes = report.settled;
    outcomes.extend(recovered.run());
    outcomes.sort_by_key(RequestOutcome::request);

    assert!(
        outcomes.len() <= reference.len(),
        "{label}: recovery fabricated requests: {} > {}",
        outcomes.len(),
        reference.len()
    );
    for (i, (got, want)) in outcomes.iter().zip(reference).enumerate() {
        assert_eq!(
            got.request(),
            want.request(),
            "{label}: surviving requests must be a prefix (position {i})"
        );
        assert_equivalent(label, got, want);
    }
    // Zero duplicate executions: the recovered process executes exactly the completions the
    // journal had not yet made durable — never a request with a `Completed` record.
    let completed_total = outcomes.iter().filter(|o| o.completed().is_some()).count() as u64;
    assert_eq!(
        recovered.executions(),
        completed_total - settled_completed,
        "{label}: a journaled completion was re-executed"
    );
    (report.readmitted, report.torn_bytes)
}

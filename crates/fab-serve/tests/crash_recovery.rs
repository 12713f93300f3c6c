//! The crash-recovery gate: for **every** deterministic [`CrashPoint`] in a run's kill-site
//! sweep, recovering from the journal bytes the dead process left behind and replaying the
//! unfinished work yields outcomes bitwise identical to an uninterrupted run — and journaled
//! completions are never executed a second time.
//!
//! The crash model is the one [`fab_serve::fault`] documents: an armed crash point latches
//! the server's crashed flag, after which every submit, journal append and queue drain is
//! refused. The crashed process's in-memory outcomes are considered lost; the only state
//! that survives is [`FabServer::journal_bytes`], exactly as for a killed process.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{
    key_set_bytes, Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, GaloisKeys,
    KeyGenerator, RelinearizationKey, SecretKey,
};
use fab_serve::{
    CrashPoint, FabServer, FakeClock, FaultClass, FaultSpec, Program, Request, RequestOutcome,
    ServeFault, ServeOp, ServerConfig, TenantId,
};

const ROTATIONS: [usize; 2] = [1, 3];
const TENANTS: usize = 2;

struct Tenant {
    rlk: RelinearizationKey,
    keys: GaloisKeys,
    input: Ciphertext,
}

fn make_ctx() -> Arc<CkksContext> {
    let params = CkksParams::builder()
        .log_n(5)
        .scale_bits(40)
        .first_prime_bits(50)
        .max_level(2)
        .dnum(1)
        .secret_hamming_weight(Some(16))
        .build()
        .expect("valid small parameters");
    CkksContext::new_arc(params).expect("context")
}

fn make_tenant(ctx: &Arc<CkksContext>, seed: u64) -> Tenant {
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

fn make_config(ctx: &Arc<CkksContext>) -> ServerConfig {
    ServerConfig {
        cache_budget_bytes: TENANTS * key_set_bytes(ctx.params(), ROTATIONS.len() + 1),
        prefetch: true,
        lookahead: 8,
        ..ServerConfig::default()
    }
}

fn make_server(ctx: &Arc<CkksContext>, tenants: &[Tenant], config: ServerConfig) -> FabServer {
    let mut server = FabServer::new(Evaluator::new(ctx.clone()), config);
    server.use_fake_clock(Arc::new(FakeClock::with_step(1)));
    for (t, tenant) in tenants.iter().enumerate() {
        server.register_tenant(TenantId(t as u32), &tenant.rlk, &tenant.keys);
    }
    server
}

/// A program that is guaranteed to demand at least one switching key.
fn keyed_program(seed: u64, len: usize) -> Program {
    let mut ops = vec![ServeOp::Rotate(1)];
    ops.extend(Program::random(seed, len, &ROTATIONS).ops().iter().copied());
    Program::new(ops)
}

fn submit_stream(
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
fn assert_equivalent(label: &str, got: &RequestOutcome, want: &RequestOutcome) {
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
        ) => {
            assert_eq!(g, w, "shed depth diverged: {label}");
        }
        (g, w) => panic!("outcome shape diverged: {label}: {g:?} vs {w:?}"),
    }
}

/// The full crash → recover → replay cycle at one kill site, checked against the
/// uninterrupted reference run. `arm` injects the (identical) fault schedule into both the
/// process that will crash and the process that recovers it.
fn check_point(
    ctx: &Arc<CkksContext>,
    tenants: &[Tenant],
    config: ServerConfig,
    reference: &[RequestOutcome],
    submit: &dyn Fn(&mut FabServer),
    arm: &dyn Fn(&mut FabServer),
    point: CrashPoint,
) {
    let label = format!("{point:?}");

    // The process that dies: journaled, armed, killed somewhere between its first append
    // and its last execution. Whatever run() returned is lost with the process.
    let mut crashed = make_server(ctx, tenants, config);
    crashed.attach_fresh_journal();
    arm(&mut crashed);
    crashed.set_crash_point(point);
    submit(&mut crashed);
    let _lost = crashed.run();
    assert!(crashed.has_crashed(), "{label} never fired");
    let disk = crashed.journal_bytes().expect("journal attached").to_vec();

    // The process that recovers: same tenants, same faults, fresh everything else.
    let mut recovered = make_server(ctx, tenants, config);
    arm(&mut recovered);
    let report = recovered.recover(&disk).unwrap_or_else(|e| {
        panic!("{label}: a cleanly-killed journal must open: {e}");
    });
    assert_eq!(report.torn_bytes, 0, "{label}: simulated kills never tear");
    assert_eq!(
        report.duplicate_starts, 0,
        "{label}: one process starts a request at most once"
    );
    let settled_completed = report
        .settled
        .iter()
        .filter(|o| o.completed().is_some())
        .count() as u64;
    let mut outcomes = report.settled;
    outcomes.extend(recovered.run());
    outcomes.sort_by_key(RequestOutcome::request);

    // A crash before an admission append loses that request (and under write-ahead
    // discipline every one submitted after it): the journal never acknowledged them, so
    // recovery legitimately knows nothing about them. Everything the journal *does* know
    // about must replay bitwise identical to the uninterrupted run.
    assert!(
        outcomes.len() <= reference.len(),
        "{label}: recovery fabricated requests: {} > {}",
        outcomes.len(),
        reference.len()
    );
    for (got, want) in outcomes.iter().zip(reference) {
        assert_equivalent(&label, got, want);
    }
    // Surviving ids are a prefix of the submission order: losing request k but knowing
    // about k+1 would mean an admission was acknowledged out of order.
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome.request(),
            reference[i].request(),
            "{label}: surviving requests must be a prefix"
        );
    }

    // Zero duplicate executions: the recovered process executes exactly the completions the
    // journal had not yet made durable — never a request with a `Completed` record.
    let completed_total = outcomes.iter().filter(|o| o.completed().is_some()).count() as u64;
    assert_eq!(
        recovered.executions(),
        completed_total - settled_completed,
        "{label}: a journaled completion was re-executed"
    );
}

/// Deterministic splitter for the proptest's crash-point subsampling.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uninterrupted journaled run → (outcomes, append count, execution count).
fn reference_run(
    ctx: &Arc<CkksContext>,
    tenants: &[Tenant],
    config: ServerConfig,
    submit: &dyn Fn(&mut FabServer),
    arm: &dyn Fn(&mut FabServer),
) -> (Vec<RequestOutcome>, u64, u64) {
    let mut server = make_server(ctx, tenants, config);
    server.attach_fresh_journal();
    arm(&mut server);
    submit(&mut server);
    let outcomes = server.run();
    let appends = server.journal().expect("journal attached").record_count() - 1;
    (outcomes, appends, server.executions())
}

#[test]
fn every_crash_point_recovers_bitwise_identical_with_zero_duplicate_executions() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| make_tenant(&ctx, 400 + t as u64))
        .collect();
    let config = make_config(&ctx);
    let submit = |server: &mut FabServer| submit_stream(server, &tenants, 2, 17, 3);
    let arm = |_: &mut FabServer| {};
    let (reference, appends, executes) = reference_run(&ctx, &tenants, config, &submit, &arm);
    assert_eq!(reference.len(), 2 * TENANTS);
    assert!(reference.iter().all(|o| o.completed().is_some()));
    // Three appends per completed request: Admitted, Started, Completed.
    assert_eq!(appends, 3 * reference.len() as u64);
    assert_eq!(executes, reference.len() as u64);

    let sweep = CrashPoint::sweep(appends, executes);
    assert_eq!(sweep.len() as u64, 2 * appends + executes);
    for point in sweep {
        check_point(&ctx, &tenants, config, &reference, &submit, &arm, point);
    }
}

#[test]
fn crashes_around_failed_records_replay_the_failure_without_reexecution() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| make_tenant(&ctx, 500 + t as u64))
        .collect();
    let config = make_config(&ctx);
    let submit = |server: &mut FabServer| submit_stream(server, &tenants, 2, 23, 2);
    // Tenant 0's key blobs are (deterministically) corrupt: every keyed request of theirs
    // fails permanent, so the journal interleaves Failed and Completed records.
    let arm = |server: &mut FabServer| server.inject_fault(TenantId(0), FaultSpec::corrupt(777));
    let (reference, appends, executes) = reference_run(&ctx, &tenants, config, &submit, &arm);
    assert!(
        reference
            .iter()
            .any(|o| matches!(o, RequestOutcome::Failed(e) if e.class() == FaultClass::Permanent)),
        "fixture must exercise the Failed path"
    );
    assert!(
        reference.iter().any(|o| o.completed().is_some()),
        "fixture must exercise the Completed path"
    );
    for point in CrashPoint::sweep(appends, executes) {
        check_point(&ctx, &tenants, config, &reference, &submit, &arm, point);
    }
}

proptest! {
    // Keygen dominates; a few cases sweeping randomized programs over subsampled kill
    // sites still covers admission, start, completion and execution windows.
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn prop_seeded_crash_schedules_recover_identically(
        key_seed in any::<u64>(),
        prog_seed in any::<u64>(),
        len in 1usize..4,
        point_seed in any::<u64>(),
    ) {
        let ctx = make_ctx();
        let tenants: Vec<Tenant> = (0..TENANTS)
            .map(|t| make_tenant(&ctx, key_seed ^ ((t as u64) << 8)))
            .collect();
        let config = make_config(&ctx);
        let submit = |server: &mut FabServer| submit_stream(server, &tenants, 2, prog_seed, len);
        let arm = |_: &mut FabServer| {};
        let (reference, appends, executes) =
            reference_run(&ctx, &tenants, config, &submit, &arm);
        let sweep = CrashPoint::sweep(appends, executes);
        let mut state = point_seed;
        for _ in 0..5 {
            let point = sweep[(splitmix(&mut state) % sweep.len() as u64) as usize];
            check_point(&ctx, &tenants, config, &reference, &submit, &arm, point);
        }
    }
}

#[test]
fn in_flight_requests_past_their_deadline_settle_on_recovery_and_a_second_recovery_agrees() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..1).map(|t| make_tenant(&ctx, 600 + t as u64)).collect();
    let config = ServerConfig {
        deadline_us: Some(1_000),
        ..make_config(&ctx)
    };

    // Die right after the first admission is durable: request 0 is in flight forever.
    let mut crashed = make_server(&ctx, &tenants, config);
    crashed.attach_fresh_journal();
    crashed.set_crash_point(CrashPoint::AfterAppend(0));
    submit_stream(&mut crashed, &tenants, 1, 31, 2);
    assert!(crashed.has_crashed());
    let disk = crashed.journal_bytes().expect("journal").to_vec();

    // The outage outlives the deadline: recovery settles the request as DeadlineExceeded
    // instead of re-admitting it, and journals that settlement.
    let mut recovered = make_server(&ctx, &tenants, config);
    let clock = Arc::new(FakeClock::with_step(1));
    clock.advance(10_000);
    recovered.use_fake_clock(clock);
    let report = recovered.recover(&disk).expect("clean journal");
    assert!(report.readmitted.is_empty());
    assert_eq!(report.settled.len(), 1);
    match &report.settled[0] {
        RequestOutcome::Failed(error) => {
            assert!(
                matches!(
                    error.fault,
                    ServeFault::DeadlineExceeded {
                        deadline_us: 1_000,
                        ..
                    }
                ),
                "got {:?}",
                error.fault
            );
            assert!(error.is_transient());
        }
        other => panic!("expected a deadline settlement, got {other:?}"),
    }
    assert!(recovered.run().is_empty());
    assert_eq!(recovered.executions(), 0);
    assert_eq!(recovered.counters().failed, 1);

    // The settlement is durable: a second recovery of the *new* journal replays it as a
    // settled failure (class preserved) and still re-admits nothing.
    let disk2 = recovered.journal_bytes().expect("journal").to_vec();
    let mut second = make_server(&ctx, &tenants, config);
    let report2 = second.recover(&disk2).expect("clean journal");
    assert!(report2.readmitted.is_empty());
    assert_eq!(report2.settled.len(), 1);
    match &report2.settled[0] {
        RequestOutcome::Failed(error) => match &error.fault {
            ServeFault::Replayed { class, description } => {
                assert_eq!(*class, FaultClass::Transient);
                assert!(description.contains("deadline"), "{description}");
            }
            other => panic!("expected Replayed, got {other:?}"),
        },
        other => panic!("expected a settled failure, got {other:?}"),
    }
}

#[test]
fn recovery_resumes_id_assignment_and_journaling_where_the_dead_process_stopped() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..1).map(|t| make_tenant(&ctx, 700 + t as u64)).collect();
    let config = make_config(&ctx);

    let mut crashed = make_server(&ctx, &tenants, config);
    crashed.attach_fresh_journal();
    // Request 0 fully journaled; die after its Completed record (append 2) so recovery
    // settles it and the process state at death is "idle with one finished request".
    crashed.set_crash_point(CrashPoint::AfterAppend(2));
    submit_stream(&mut crashed, &tenants, 1, 41, 2);
    let _lost = crashed.run();
    assert!(crashed.has_crashed());
    let disk = crashed.journal_bytes().expect("journal").to_vec();

    let mut recovered = make_server(&ctx, &tenants, config);
    let report = recovered.recover(&disk).expect("clean journal");
    assert_eq!(report.settled.len(), 1);
    assert!(report.settled[0].completed().is_some());

    // New work after recovery continues the id sequence — ids never collide with journaled
    // ones — and lands in the recovered journal.
    let records_before = recovered.journal().expect("journal").record_count();
    let id = recovered.submit(Request {
        tenant: TenantId(0),
        program: keyed_program(42, 2),
        input: tenants[0].input.clone(),
    });
    assert_eq!(id.0, 1, "recovered id allocation must skip journaled ids");
    let outcomes = recovered.run();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].completed().is_some());
    let records_after = recovered.journal().expect("journal").record_count();
    assert_eq!(
        records_after - records_before,
        3,
        "Admitted+Started+Completed"
    );
}

//! The crash-recovery gate beyond the plain sweep: the crash → recover → replay cycle of
//! `tests/simdisk_crash_sweep.rs` — kill the journal's disk at an op index, draw what
//! survived, recover a fresh server from it — over streams that interleave failed requests,
//! over random programs, across an outage that outlives a deadline, and across a restart
//! that keeps serving. Every journal here is a [`DurableJournal`] over a [`SharedDisk`]
//! under [`SyncPolicy::Always`]; recovered outcomes must be bitwise identical to a prefix of
//! the uninterrupted run, and journaled completions are never executed a second time.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use fab_ckks::CkksContext;
use fab_serve::{
    DurableJournal, FabServer, FakeClock, FaultClass, FaultSpec, JournalRecord, RecoveredJournal,
    Request, RequestId, RequestOutcome, ServeFault, ServerConfig, TenantId,
};
use fab_store::{SharedDisk, StorageBackend, SyncPolicy};

use common::{
    check_surface, keyed_program, make_config, make_ctx, make_server, make_tenant, run_journaled,
    submit_stream, Tenant, ROTATE_AFTER,
};

const TENANTS: usize = 2;
const POLICY: SyncPolicy = SyncPolicy::Always;

/// The uninterrupted journaled run: its live outcomes (typed faults intact) and the number
/// of disk ops it crossed — the kill-site axis.
fn reference_run(
    ctx: &Arc<CkksContext>,
    tenants: &[Tenant],
    config: ServerConfig,
    arm: &dyn Fn(&mut FabServer),
    submit: &dyn Fn(&mut FabServer),
) -> (Vec<RequestOutcome>, u64) {
    let disk = SharedDisk::new();
    let backend = Box::new(disk.clone());
    let (_server, outcomes) = run_journaled(ctx, tenants, config, backend, POLICY, arm, submit)
        .expect("unarmed disk cannot crash");
    (outcomes, disk.op_count())
}

/// Kills the journal's disk immediately before op `at` of the run, then recovers from the
/// surface each of `seeds` draws and checks the replay against `reference`.
#[allow(clippy::too_many_arguments)]
fn check_kill_site(
    ctx: &Arc<CkksContext>,
    tenants: &[Tenant],
    config: ServerConfig,
    reference: &[RequestOutcome],
    arm: &dyn Fn(&mut FabServer),
    submit: &dyn Fn(&mut FabServer),
    at: u64,
    seeds: &[u64],
) {
    let disk = SharedDisk::new();
    disk.arm_crash(at);
    let backend = Box::new(disk.clone());
    // Whatever run() returned is lost with the process.
    if let Some((dead, _lost)) = run_journaled(ctx, tenants, config, backend, POLICY, arm, submit) {
        assert!(dead.has_crashed(), "armed op {at} never fired");
    }
    assert!(disk.has_crashed());
    for &seed in seeds {
        let label = format!("crash at op {at}, seed {seed}");
        let surface = disk.crash_surface(seed);
        check_surface(
            ctx, tenants, config, reference, POLICY, arm, surface, &label,
        );
    }
}

#[test]
fn crashes_around_failed_records_replay_the_failure_without_reexecution() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| make_tenant(&ctx, 500 + t as u64))
        .collect();
    let config = make_config(&ctx, TENANTS);
    let submit = |server: &mut FabServer| submit_stream(server, &tenants, 2, 23, 2);
    // Tenant 0's key blobs are (deterministically) corrupt: every keyed request of theirs
    // fails permanent, so the journal interleaves Failed and Completed records.
    let arm = |server: &mut FabServer| server.inject_fault(TenantId(0), FaultSpec::corrupt(777));
    let (reference, total_ops) = reference_run(&ctx, &tenants, config, &arm, &submit);
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
    for at in 0..total_ops {
        check_kill_site(
            &ctx,
            &tenants,
            config,
            &reference,
            &arm,
            &submit,
            at,
            &[3, 11],
        );
    }
}

/// Deterministic splitter for the proptest's kill-site subsampling.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
        let config = make_config(&ctx, TENANTS);
        let submit = |server: &mut FabServer| submit_stream(server, &tenants, 2, prog_seed, len);
        let arm = |_: &mut FabServer| {};
        let (reference, total_ops) = reference_run(&ctx, &tenants, config, &arm, &submit);
        let mut state = point_seed;
        for _ in 0..5 {
            let at = splitmix(&mut state) % total_ops;
            let seed = splitmix(&mut state);
            check_kill_site(&ctx, &tenants, config, &reference, &arm, &submit, at, &[seed]);
        }
    }
}

#[test]
fn in_flight_requests_past_their_deadline_settle_on_recovery_and_a_second_recovery_agrees() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..1).map(|t| make_tenant(&ctx, 600 + t as u64)).collect();
    let config = ServerConfig {
        deadline_us: Some(1_000),
        ..make_config(&ctx, TENANTS)
    };

    // The process dies right after the first admission is durable — before it ever drains
    // its queue — so request 0 is in flight forever. The disk outlives it.
    let disk = SharedDisk::new();
    let mut dead = make_server(&ctx, &tenants, config);
    dead.attach_durable_journal(
        DurableJournal::create(Box::new(disk.clone()), ctx.clone(), POLICY, ROTATE_AFTER)
            .expect("healthy disk"),
    );
    submit_stream(&mut dead, &tenants, 1, 31, 2);
    drop(dead);

    // The outage outlives the deadline: recovery settles the request as DeadlineExceeded
    // instead of re-admitting it, and journals that settlement.
    let mut recovered = make_server(&ctx, &tenants, config);
    let clock = Arc::new(FakeClock::with_step(1));
    clock.advance(10_000);
    recovered.use_fake_clock(clock);
    let report = recovered
        .recover_from_store(Box::new(disk.clone()), POLICY, ROTATE_AFTER)
        .expect("clean journal");
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
    drop(recovered);

    // The settlement is durable: a second recovery of the same disk replays it as a
    // settled failure (class preserved) and still re-admits nothing.
    let mut second = make_server(&ctx, &tenants, config);
    let report2 = second
        .recover_from_store(Box::new(disk.clone()), POLICY, ROTATE_AFTER)
        .expect("clean journal");
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
    let config = make_config(&ctx, TENANTS);

    // Request 0 fully journaled, then the process dies: its state at death is "idle with
    // one finished request".
    let disk = SharedDisk::new();
    let submit = |server: &mut FabServer| submit_stream(server, &tenants, 1, 41, 2);
    let backend = Box::new(disk.clone());
    let (dead, _lost) = run_journaled(&ctx, &tenants, config, backend, POLICY, &|_| {}, &submit)
        .expect("healthy disk");
    drop(dead);

    let mut recovered = make_server(&ctx, &tenants, config);
    let report = recovered
        .recover_from_store(Box::new(disk.clone()), POLICY, ROTATE_AFTER)
        .expect("clean journal");
    assert_eq!(report.settled.len(), 1);
    assert!(report.settled[0].completed().is_some());

    // New work after recovery continues the id sequence — ids never collide with journaled
    // ones — and lands in the recovered journal's active segment.
    let active = recovered
        .durable_journal()
        .expect("reattached")
        .active_segment();
    let active_records = |disk: &SharedDisk| {
        let bytes = disk.snapshot().read(&active).expect("active segment");
        let log = RecoveredJournal::open(&bytes, &ctx).expect("clean segment");
        assert_eq!(log.torn_bytes, 0);
        log.records
    };
    assert!(active_records(&disk).is_empty(), "recovery starts it fresh");
    let id = recovered.submit(Request {
        tenant: TenantId(0),
        program: keyed_program(42, 2),
        input: tenants[0].input.clone(),
    });
    assert_eq!(id.0, 1, "recovered id allocation must skip journaled ids");
    let outcomes = recovered.run();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].completed().is_some());
    let appended = active_records(&disk);
    assert!(
        matches!(
            appended[..],
            [
                JournalRecord::Admitted {
                    request: RequestId(1),
                    ..
                },
                JournalRecord::Started {
                    request: RequestId(1)
                },
                JournalRecord::Completed {
                    request: RequestId(1),
                    ..
                },
            ]
        ),
        "Admitted+Started+Completed, got {appended:?}"
    );
}

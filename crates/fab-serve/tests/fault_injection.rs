//! The fault-injection harness gate: the server survives every injected fault schedule,
//! non-faulted requests stay **bitwise identical** to a fault-free run, and every failure
//! surfaces as the right typed [`ServeFault`] variant.
//!
//! Faults are injected through the [`fab_serve::fault`] module — corrupted key blobs,
//! fail-N-times-then-succeed fetches, slow fetches on a deterministic [`FakeClock`],
//! mid-stream chaos evictions, deadline pressure and queue overflow — all seeded, so every
//! schedule here replays bit-for-bit.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use fab_ckks::{key_set_bytes, Ciphertext, Evaluator};
use fab_serve::{
    FabServer, FakeClock, FaultPlan, FaultSpec, Program, Request, RequestOutcome, ServeFault,
    ServeOp, ServerConfig, TenantId,
};
use fab_trace::{phase, RecordingSink};

use common::{keyed_program, make_ctx, make_server, make_tenant, submit_stream, Tenant, ROTATIONS};

const TENANTS: usize = 3;

fn assert_bitwise_equal(label: &str, got: &Ciphertext, want: &Ciphertext) {
    assert_eq!(got.c0(), want.c0(), "c0 diverged: {label}");
    assert_eq!(got.c1(), want.c1(), "c1 diverged: {label}");
}

/// Shorthand classification of a plan entry for outcome checks.
fn kind(spec: &FaultSpec) -> &'static str {
    if spec.corrupt_bit.is_some() {
        "corrupt"
    } else if spec.fail_fetches > 0 {
        "flaky"
    } else {
        "slow"
    }
}

proptest! {
    // Keygen dominates; a handful of cases still sweeps fault plans, programs, rounds and
    // eviction schedules. FAB_THREADS is irrelevant here (fab-serve is single-threaded);
    // the CI chaos job runs this suite under FAB_THREADS=4 alongside the fab-par gates.
    #![proptest_config(ProptestConfig::with_cases(5))]
    #[test]
    fn prop_server_survives_every_injected_schedule(
        plan_seed in any::<u64>(),
        key_seed in any::<u64>(),
        prog_seed in any::<u64>(),
        rate_pct in 25u64..90,
        rounds in 2u64..4,
        len in 1usize..5,
        evict_at in proptest::collection::vec(1u64..40, 3),
    ) {
        let ctx = make_ctx();
        let tenants: Vec<Tenant> =
            (0..TENANTS).map(|t| make_tenant(&ctx, key_seed ^ (t as u64) << 8)).collect();
        let per_set = key_set_bytes(ctx.params(), ROTATIONS.len() + 1);
        let config = ServerConfig {
            cache_budget_bytes: TENANTS * per_set,
            prefetch: true,
            lookahead: 8,
            ..ServerConfig::default()
        };

        // Fault-free reference run.
        let mut reference = make_server(&ctx, &tenants, config);
        submit_stream(&mut reference, &tenants, rounds, prog_seed, len);
        let reference_outputs: Vec<Ciphertext> = reference
            .run()
            .into_iter()
            .map(|o| match o {
                RequestOutcome::Completed(served) => served.output,
                other => panic!("fault-free run must complete every request: {other:?}"),
            })
            .collect();

        // Chaos run: seeded fault plan + scheduled mid-stream evictions.
        let tenant_ids: Vec<TenantId> = (0..TENANTS).map(|t| TenantId(t as u32)).collect();
        let plan = FaultPlan::random(plan_seed, &tenant_ids, rate_pct as f64 / 100.0);
        prop_assert_eq!(&plan, &FaultPlan::random(plan_seed, &tenant_ids, rate_pct as f64 / 100.0));
        let kinds: std::collections::BTreeMap<TenantId, &'static str> =
            plan.specs.iter().map(|(t, s)| (*t, kind(s))).collect();
        let mut server = make_server(&ctx, &tenants, config);
        plan.apply(&mut server);
        server.cache_mut().schedule_chaos_evictions(&evict_at);
        submit_stream(&mut server, &tenants, rounds, prog_seed, len);
        let outcomes = server.run();

        // One outcome per submitted request, in submission order — the batch never aborts.
        prop_assert_eq!(outcomes.len(), reference_outputs.len());
        for (i, outcome) in outcomes.iter().enumerate() {
            prop_assert_eq!(outcome.request().0, i as u64);
            prop_assert_eq!(outcome.tenant(), TenantId((i % TENANTS) as u32));
        }

        let mut last_flaky_completed: std::collections::BTreeMap<TenantId, bool> =
            std::collections::BTreeMap::new();
        for (outcome, reference) in outcomes.iter().zip(&reference_outputs) {
            match kinds.get(&outcome.tenant()).copied() {
                // Non-faulted (and merely slowed — no deadline here) tenants complete with
                // outputs bitwise identical to the fault-free run, chaos evictions included.
                None | Some("slow") => {
                    let served = outcome.completed().expect("unfaulted requests complete");
                    assert_bitwise_equal("unfaulted under chaos", &served.output, reference);
                }
                // Corrupt blobs: every keyed request fails with the typed permanent variant.
                Some("corrupt") => {
                    let error = outcome.error().expect("corrupt tenant requests fail");
                    prop_assert!(
                        matches!(error.fault, ServeFault::CorruptKey { .. }),
                        "expected CorruptKey, got {:?}", error.fault
                    );
                    prop_assert!(!error.is_transient());
                }
                // Fail-then-recover: failures (if the budget is exhausted) are transient
                // KeyFetch errors; completions are bitwise identical.
                Some(_) => {
                    match outcome {
                        RequestOutcome::Completed(served) => {
                            assert_bitwise_equal("recovered flaky", &served.output, reference);
                            last_flaky_completed.insert(outcome.tenant(), true);
                        }
                        RequestOutcome::Failed(error) => {
                            prop_assert!(
                                matches!(error.fault, ServeFault::KeyFetch { .. }),
                                "expected KeyFetch, got {:?}", error.fault
                            );
                            prop_assert!(error.is_transient());
                            last_flaky_completed.insert(outcome.tenant(), false);
                        }
                        RequestOutcome::Shed { .. } => {
                            panic!("unbounded queue never sheds")
                        }
                    }
                }
            }
        }
        // Every keyed request consumes injected failures (prefetch one, demand up to the
        // retry budget), and plans draw at most 4, so flaky tenants recover by their final
        // request.
        for (tenant, completed) in last_flaky_completed {
            prop_assert!(completed, "{tenant} never recovered");
        }
        // Failed requests rolled back their admissions and were counted.
        let counters = server.counters();
        prop_assert_eq!(
            counters.completed + counters.failed,
            reference_outputs.len() as u64
        );
        prop_assert_eq!(counters.shed, 0);
        if kinds.values().any(|k| *k == "corrupt") {
            prop_assert!(counters.failed > 0);
            prop_assert!(server.cache_stats().corrupt_fetches > 0);
            prop_assert!(server.cache().quarantined_count() > 0);
        }
    }
}

#[test]
fn fail_then_recover_within_the_retry_budget_completes_with_counted_backoff() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..1).map(|t| make_tenant(&ctx, 40 + t)).collect();
    let mut server = make_server(
        &ctx,
        &tenants,
        ServerConfig {
            cache_budget_bytes: key_set_bytes(ctx.params(), ROTATIONS.len() + 1),
            prefetch: false,
            lookahead: 0,
            max_fetch_attempts: 3,
            ..ServerConfig::default()
        },
    );
    // Two transient failures, three attempts allowed: the demand fetch retries through both
    // and the request completes — the caller never sees the fault.
    server.inject_fault(TenantId(0), FaultSpec::fail_then_recover(2));
    server.submit(Request {
        tenant: TenantId(0),
        program: keyed_program(1, 2),
        input: tenants[0].input.clone(),
    });
    let outcomes = server.run();
    assert!(outcomes[0].completed().is_some(), "{:?}", outcomes[0]);
    let stats = server.cache_stats();
    assert_eq!(stats.transient_retries, 2);
    // Counted exponential backoff: retry 1 charges 1 unit, retry 2 charges 2 — no sleeps.
    assert_eq!(stats.backoff_units, 3);
    assert_eq!(server.counters().failed, 0);
}

#[test]
fn exhausted_retry_budget_fails_transient_and_the_next_request_recovers() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..1).map(|t| make_tenant(&ctx, 50 + t)).collect();
    let mut server = make_server(
        &ctx,
        &tenants,
        ServerConfig {
            cache_budget_bytes: key_set_bytes(ctx.params(), ROTATIONS.len() + 1),
            prefetch: false,
            lookahead: 0,
            max_fetch_attempts: 3,
            ..ServerConfig::default()
        },
    );
    // Five failures against a budget of three attempts: request 1 exhausts its budget and
    // fails with the typed transient variant carrying the attempt count...
    server.inject_fault(TenantId(0), FaultSpec::fail_then_recover(5));
    for _ in 0..2 {
        server.submit(Request {
            tenant: TenantId(0),
            program: keyed_program(1, 2),
            input: tenants[0].input.clone(),
        });
    }
    let outcomes = server.run();
    let error = outcomes[0].error().expect("first request exhausts retries");
    match &error.fault {
        ServeFault::KeyFetch { attempts, .. } => assert_eq!(*attempts, 3),
        other => panic!("expected KeyFetch, got {other:?}"),
    }
    assert!(error.is_transient());
    // ...which consumed three injected failures; request 2 retries through the remaining
    // two and completes. State persists across requests like a real flaky backend.
    assert!(outcomes[1].completed().is_some(), "{:?}", outcomes[1]);
    assert_eq!(server.counters().failed, 1);
    assert_eq!(server.counters().completed, 1);
    assert!(
        server.cache_stats().rollbacks <= 1,
        "only request 1 rolls back"
    );
}

#[test]
fn corrupt_key_bytes_fail_typed_quarantine_and_spare_the_other_tenant() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..2).map(|t| make_tenant(&ctx, 60 + t)).collect();
    let per_set = key_set_bytes(ctx.params(), ROTATIONS.len() + 1);
    let config = ServerConfig {
        cache_budget_bytes: 2 * per_set,
        prefetch: true,
        lookahead: 8,
        ..ServerConfig::default()
    };
    let mut reference = make_server(&ctx, &tenants, config);
    reference.submit(Request {
        tenant: TenantId(1),
        program: keyed_program(9, 3),
        input: tenants[1].input.clone(),
    });
    let reference_output = reference.run()[0]
        .completed()
        .expect("fault-free")
        .output
        .clone();

    let mut server = make_server(&ctx, &tenants, config);
    server.inject_fault(TenantId(0), FaultSpec::corrupt(12345));
    for round in 0..2 {
        server.submit(Request {
            tenant: TenantId(0),
            program: keyed_program(9 + round, 3),
            input: tenants[0].input.clone(),
        });
    }
    server.submit(Request {
        tenant: TenantId(1),
        program: keyed_program(9, 3),
        input: tenants[1].input.clone(),
    });
    let outcomes = server.run();
    for outcome in &outcomes[..2] {
        let error = outcome.error().expect("corrupt tenant fails");
        assert!(
            matches!(
                error.fault,
                ServeFault::CorruptKey {
                    source: fab_ckks::CkksError::CorruptKey { .. },
                    ..
                }
            ),
            "got {:?}",
            error.fault
        );
        assert!(!error.is_transient());
        assert_eq!(error.tenant, TenantId(0));
    }
    // The corrupt pair is quarantined (later accesses probe once instead of burning the
    // retry budget), and the healthy tenant in the same batch is untouched — bitwise.
    assert!(server.cache().quarantined_count() >= 1);
    assert!(server.cache_stats().corrupt_fetches >= 1);
    let healthy = outcomes[2].completed().expect("healthy tenant completes");
    assert_bitwise_equal("healthy beside corrupt", &healthy.output, &reference_output);
}

#[test]
fn injected_fetch_latency_blows_deadlines_deterministically() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..1).map(|t| make_tenant(&ctx, 70 + t)).collect();
    let mut server = make_server(
        &ctx,
        &tenants,
        ServerConfig {
            cache_budget_bytes: key_set_bytes(ctx.params(), ROTATIONS.len() + 1),
            prefetch: true,
            lookahead: 8,
            deadline_us: Some(1_000),
            ..ServerConfig::default()
        },
    );
    // 5 ms of injected fetch latency against a 1 ms deadline: the post-prefetch deadline
    // check fires before execution starts for request 1, and request 2 is already past its
    // deadline at pickup. Both on the fake clock — zero wall-clock dependence.
    server.inject_fault(TenantId(0), FaultSpec::slow(5_000));
    for round in 0..2 {
        server.submit(Request {
            tenant: TenantId(0),
            program: keyed_program(2 + round, 2),
            input: tenants[0].input.clone(),
        });
    }
    let outcomes = server.run();
    for outcome in &outcomes {
        let error = outcome.error().expect("deadline exceeded");
        match &error.fault {
            ServeFault::DeadlineExceeded {
                deadline_us,
                elapsed_us,
            } => {
                assert_eq!(*deadline_us, 1_000);
                assert!(*elapsed_us > 1_000);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(error.is_transient());
    }
    assert_eq!(server.counters().failed, 2);
}

#[test]
fn bounded_queue_sheds_newest_with_a_typed_outcome() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..1).map(|t| make_tenant(&ctx, 80 + t)).collect();
    let mut server = make_server(
        &ctx,
        &tenants,
        ServerConfig {
            cache_budget_bytes: key_set_bytes(ctx.params(), ROTATIONS.len() + 1),
            prefetch: false,
            lookahead: 0,
            queue_capacity: Some(2),
            ..ServerConfig::default()
        },
    );
    for round in 0..4 {
        server.submit(Request {
            tenant: TenantId(0),
            program: keyed_program(3 + round, 2),
            input: tenants[0].input.clone(),
        });
    }
    assert_eq!(server.queue_len(), 2, "reject-newest keeps the oldest two");
    let outcomes = server.run();
    assert_eq!(outcomes.len(), 4, "shed requests still yield outcomes");
    assert!(outcomes[0].completed().is_some());
    assert!(outcomes[1].completed().is_some());
    for (i, outcome) in outcomes.iter().enumerate().skip(2) {
        match outcome {
            RequestOutcome::Shed {
                request,
                tenant,
                queue_depth,
            } => {
                assert_eq!(request.0, i as u64);
                assert_eq!(*tenant, TenantId(0));
                assert_eq!(*queue_depth, 2);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        assert!(outcome.is_shed());
    }
    assert_eq!(server.counters().shed, 2);
    assert_eq!(server.counters().completed, 2);
}

#[test]
fn queue_pressure_degrades_by_skipping_prefetch_before_shedding() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..1).map(|t| make_tenant(&ctx, 90 + t)).collect();
    let mut server = make_server(
        &ctx,
        &tenants,
        ServerConfig {
            cache_budget_bytes: key_set_bytes(ctx.params(), ROTATIONS.len() + 1),
            prefetch: true,
            lookahead: 8,
            pressure_threshold: Some(0),
            ..ServerConfig::default()
        },
    );
    for round in 0..3 {
        server.submit(Request {
            tenant: TenantId(0),
            program: keyed_program(4 + round, 2),
            input: tenants[0].input.clone(),
        });
    }
    let outcomes = server.run();
    assert!(outcomes.iter().all(|o| o.completed().is_some()));
    // With the threshold at zero, every pickup that leaves a non-empty queue behind skips
    // prefetch; only the last request (empty queue) warms the cache.
    assert_eq!(server.counters().pressure_skips, 2);
    assert!(
        server.cache_stats().prefetches > 0,
        "last request prefetches"
    );
}

#[test]
fn failed_requests_charge_a_serve_failed_phase_mark() {
    let ctx = make_ctx();
    let tenant = make_tenant(&ctx, 95);
    let sink = RecordingSink::shared("chaos");
    let mut server = FabServer::new(
        Evaluator::with_sink(ctx.clone(), sink.clone()),
        ServerConfig {
            cache_budget_bytes: key_set_bytes(ctx.params(), ROTATIONS.len() + 1),
            prefetch: false,
            lookahead: 0,
            ..ServerConfig::default()
        },
    );
    server.use_fake_clock(Arc::new(FakeClock::with_step(1)));
    server.register_tenant(TenantId(0), &tenant.rlk, &tenant.keys);
    server.inject_fault(TenantId(0), FaultSpec::corrupt(777));
    server.submit(Request {
        tenant: TenantId(0),
        program: keyed_program(5, 2),
        input: tenant.input.clone(),
    });
    let outcomes = server.run();
    assert!(outcomes[0].error().is_some());
    let trace = sink.take();
    let labels = trace.phase_labels();
    assert!(
        labels.contains(&phase::SERVE_FAILED),
        "failed request must charge a serve_failed mark, got {labels:?}"
    );
    // The failure mark carries no ops — it exists so per-phase accounting still balances.
    assert!(trace.phase_ops(phase::SERVE_FAILED).unwrap().is_empty());
}

#[test]
fn identical_seeds_replay_identical_outcomes() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| make_tenant(&ctx, 300 + t as u64))
        .collect();
    let per_set = key_set_bytes(ctx.params(), ROTATIONS.len() + 1);
    let config = ServerConfig {
        cache_budget_bytes: TENANTS * per_set,
        prefetch: true,
        lookahead: 8,
        ..ServerConfig::default()
    };
    let tenant_ids: Vec<TenantId> = (0..TENANTS).map(|t| TenantId(t as u32)).collect();
    let run = || {
        let mut server = make_server(&ctx, &tenants, config);
        FaultPlan::random(0xFA57, &tenant_ids, 0.6).apply(&mut server);
        server.cache_mut().schedule_chaos_evictions(&[4, 9]);
        submit_stream(&mut server, &tenants, 2, 21, 3);
        server.run()
    };
    let first = run();
    let second = run();
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        match (a, b) {
            (RequestOutcome::Completed(x), RequestOutcome::Completed(y)) => {
                assert_bitwise_equal("replay", &x.output, &y.output);
            }
            (RequestOutcome::Failed(x), RequestOutcome::Failed(y)) => {
                assert_eq!(x, y, "replayed failure diverged");
            }
            (x, y) => panic!("outcome shape diverged: {x:?} vs {y:?}"),
        }
    }
}

#[test]
fn rollback_of_a_failed_request_keeps_its_prefetch_admissions_resident() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..1).map(|t| make_tenant(&ctx, 80 + t)).collect();
    let config = ServerConfig {
        cache_budget_bytes: 2 * key_set_bytes(ctx.params(), ROTATIONS.len() + 1),
        prefetch: true,
        lookahead: 8,
        ..ServerConfig::default()
    };
    let mut server = make_server(&ctx, &tenants, config);

    // The tenant holds no key for step 9, so the request fails at execution — *after* the
    // prefetch pass already admitted the (valid) key for step 1 and then degraded on the
    // missing one.
    let failing = Program::new(vec![ServeOp::Rotate(1), ServeOp::Rotate(9)]);
    let key_1 = failing.key_refs(&ctx, ctx.params().max_level).unwrap()[0];
    server.submit(Request {
        tenant: TenantId(0),
        program: failing,
        input: tenants[0].input.clone(),
    });
    let outcomes = server.run();
    let error = outcomes[0].error().expect("missing key fails the request");
    assert!(
        matches!(error.fault, ServeFault::MissingKey { .. }),
        "{:?}",
        error.fault
    );
    assert_eq!(server.counters().prefetch_failures, 1);
    // The rollback audit's contract: prefetch-phase admissions survive the rollback. A
    // fault-free run of this request would have performed the identical prefetch walk, so
    // the admitted key is exactly what the cache would hold anyway — evicting it would
    // diverge from the fault-free hit pattern. Only demand-phase residue is undone.
    assert!(
        server.cache().contains(TenantId(0), key_1),
        "rollback evicted a prefetch-phase admission"
    );
    assert_eq!(server.cache_stats().rollbacks, 0);

    // A follow-up request over the surviving working set runs entirely from cache.
    let bytes_before = server.cache_stats().bytes_fetched;
    server.submit(Request {
        tenant: TenantId(0),
        program: Program::new(vec![ServeOp::Rotate(1)]),
        input: tenants[0].input.clone(),
    });
    let outcomes = server.run();
    assert!(outcomes[0].completed().is_some(), "{:?}", outcomes[0]);
    assert_eq!(
        server.cache_stats().bytes_fetched,
        bytes_before,
        "the surviving prefetch admission must serve the follow-up without refetching"
    );
}

#[test]
fn rollback_of_a_failed_request_undoes_its_demand_admissions() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..1).map(|t| make_tenant(&ctx, 90 + t)).collect();
    let config = ServerConfig {
        cache_budget_bytes: 2 * key_set_bytes(ctx.params(), ROTATIONS.len() + 1),
        prefetch: true,
        lookahead: 8,
        ..ServerConfig::default()
    };
    let mut server = make_server(&ctx, &tenants, config);

    // One injected failure: the (single-attempt) prefetch pass burns it and degrades, so
    // the key for step 1 arrives through the *demand* path's retry instead — a demand-phase
    // admission in a request that then fails on the missing step-9 key.
    server.inject_fault(TenantId(0), FaultSpec::fail_then_recover(1));
    let failing = Program::new(vec![ServeOp::Rotate(1), ServeOp::Rotate(9)]);
    let key_1 = failing.key_refs(&ctx, ctx.params().max_level).unwrap()[0];
    server.submit(Request {
        tenant: TenantId(0),
        program: failing,
        input: tenants[0].input.clone(),
    });
    let outcomes = server.run();
    let error = outcomes[0].error().expect("missing key fails the request");
    assert!(
        matches!(error.fault, ServeFault::MissingKey { .. }),
        "{:?}",
        error.fault
    );
    assert_eq!(server.counters().prefetch_failures, 1);
    // Demand misses of a failed execution are residue a fault-free trace may never
    // replicate: the rollback undoes them.
    assert!(
        !server.cache().contains(TenantId(0), key_1),
        "rollback kept a demand-phase admission of a failed request"
    );
    assert_eq!(server.cache_stats().rollbacks, 1);

    // The injector has recovered: the next request re-warms the key through prefetch and
    // completes, with no further rollbacks.
    server.submit(Request {
        tenant: TenantId(0),
        program: Program::new(vec![ServeOp::Rotate(1)]),
        input: tenants[0].input.clone(),
    });
    let outcomes = server.run();
    assert!(outcomes[0].completed().is_some(), "{:?}", outcomes[0]);
    assert!(server.cache().contains(TenantId(0), key_1));
    assert_eq!(server.cache_stats().rollbacks, 1);
}

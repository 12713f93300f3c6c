//! The crash-consistency gate: for **every** disk-syscall boundary a journaled run crosses,
//! and for multiple seeded draws of the post-crash surface (torn unsynced writes, reordered
//! write-back, dropped directory ops), recovering from what survived replays bitwise
//! identically to an uninterrupted run with zero duplicate executions — and a compacted
//! journal recovers to exactly the same state as the uncompacted one, including when the
//! crash lands *inside* the compaction itself.
//!
//! A serving process dies when its journal device does, so a disk-op index is the only
//! kill-site vocabulary there is: dying before record *n* is written is `arm_crash` at its
//! `append` op, dying right after it is durable is the op after its `sync`, and dying with
//! the work done but its receipt lost is the `append` op of a `Completed` record. The
//! journal lives on a [`SimDisk`] behind the [`fab_store::StorageBackend`] seam, written
//! under a real [`SyncPolicy`]. One test runs the same workload over a real [`FileBackend`]
//! directory beside its simulated twin, so the seam is also exercised against the
//! filesystem it stands in for. `tests/crash_recovery.rs` runs the same cycle over failing
//! requests, random programs, deadlines and a restart.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use fab_ckks::CkksContext;
use fab_serve::{FabServer, RecoveredJournal, RequestId, RequestOutcome, ServerConfig, StoreError};
use fab_store::{FileBackend, SharedDisk, SimDisk, StorageBackend, SyncPolicy};

use common::{
    assert_equivalent, check_surface, make_config, make_ctx, make_server, make_tenant,
    run_journaled, submit_stream, Tenant, ROTATE_AFTER,
};

const TENANTS: usize = 2;

/// Runs the reference workload — two rounds, no faults — against a durable journal on
/// `disk`. Returns the server post-run (the journal stays attached). `None` if the disk
/// crashed during journal creation — possible only when a crash is armed.
fn run_workload(
    ctx: &Arc<CkksContext>,
    tenants: &[Tenant],
    config: ServerConfig,
    disk: &SharedDisk,
    policy: SyncPolicy,
) -> Option<FabServer> {
    run_workload_on(ctx, tenants, config, Box::new(disk.clone()), policy)
}

/// [`run_workload`] over any backend — the simulated disk or a real directory.
fn run_workload_on(
    ctx: &Arc<CkksContext>,
    tenants: &[Tenant],
    config: ServerConfig,
    backend: Box<dyn StorageBackend + Send>,
    policy: SyncPolicy,
) -> Option<FabServer> {
    let submit = |server: &mut FabServer| submit_stream(server, tenants, 2, 17, 2);
    run_journaled(ctx, tenants, config, backend, policy, &|_| {}, &submit)
        .map(|(server, _outcomes)| server)
}

#[test]
fn every_simdisk_crash_schedule_recovers_bitwise_identically_with_zero_duplicate_executions() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| make_tenant(&ctx, 900 + t as u64))
        .collect();
    let config = make_config(&ctx, TENANTS);

    for policy in [SyncPolicy::Always, SyncPolicy::EveryN(4)] {
        // Uninterrupted reference: outcomes, plus the syscall count that bounds the sweep.
        let ref_disk = SharedDisk::new();
        let mut ref_server = run_workload(&ctx, &tenants, config, &ref_disk, policy)
            .expect("unarmed disk cannot crash");
        drop(ref_server.take_durable_journal());
        let reference = {
            // Reconstruct the reference outcomes by recovering the healthy disk — this
            // also proves a *clean* shutdown recovers losslessly under every policy.
            let mut replay = make_server(&ctx, &tenants, config);
            let report = replay
                .recover_from_store(Box::new(ref_disk.snapshot()), policy, ROTATE_AFTER)
                .expect("healthy disk recovers");
            assert_eq!(report.torn_bytes, 0, "clean shutdown discards nothing");
            assert!(report.readmitted.is_empty(), "everything settled");
            assert_eq!(
                replay.executions(),
                0,
                "nothing re-executes after clean run"
            );
            report.settled
        };
        assert_eq!(reference.len(), 2 * TENANTS);
        assert!(reference.iter().all(|o| o.completed().is_some()));
        assert_eq!(ref_server.executions(), reference.len() as u64);

        let total_ops = ref_disk.op_count();
        assert!(
            total_ops > 20,
            "the workload must cross many syscall boundaries, got {total_ops}"
        );
        let mut ref_files = ref_disk.snapshot();
        let segments = ref_files.list("seg-");
        assert!(segments.len() > 1, "the workload must rotate segments");
        // Three appends per completed request: Admitted, Started, Completed.
        let journaled: usize = segments
            .iter()
            .map(|name| {
                let bytes = ref_files.read(name).expect("segment");
                let log = RecoveredJournal::open(&bytes, &ctx).expect("clean segment");
                log.records.len()
            })
            .sum();
        assert_eq!(journaled, 3 * reference.len());

        // Per execution k: did some kill site leave the work done and its receipt lost —
        // the dead process had executed request k, and recovery executes it again?
        let mut receipt_lost = vec![false; reference.len()];
        let mut tail_dropped = false;
        for at in 0..total_ops {
            let disk = SharedDisk::new();
            disk.arm_crash(at);
            let dead = run_workload(&ctx, &tenants, config, &disk, policy);
            if let Some(server) = &dead {
                assert!(
                    server.has_crashed(),
                    "policy {policy:?}: armed op {at} of {total_ops} never fired"
                );
            }
            assert!(disk.has_crashed());
            let executed = dead.map_or(0, |server| server.executions());
            // Two fixed seeds and one that moves with the site: a lone unsynced write meets
            // the same first draws under a fixed seed, so fixed seeds alone never tear it.
            for seed in [3u64, 11, 100 + at] {
                let label = format!("policy {policy:?}, crash at op {at}, seed {seed}");
                let (readmitted, torn_bytes) = check_surface(
                    &ctx,
                    &tenants,
                    config,
                    &reference,
                    policy,
                    &|_| {},
                    disk.crash_surface(seed),
                    &label,
                );
                tail_dropped |= torn_bytes > 0;
                // Requests execute in id order, so execution k is request k.
                for k in 0..executed {
                    receipt_lost[k as usize] |= readmitted.contains(&RequestId(k));
                }
            }
        }
        assert!(
            receipt_lost.iter().all(|&lost| lost),
            "policy {policy:?}: no kill site lost the receipt of a finished execution: \
             {receipt_lost:?}"
        );
        assert!(
            tail_dropped,
            "policy {policy:?}: no surface made recovery drop a damaged tail"
        );
    }
}

#[test]
fn compacted_journal_recovers_to_the_same_state_as_the_uncompacted_one() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| make_tenant(&ctx, 1000 + t as u64))
        .collect();
    let config = make_config(&ctx, TENANTS);
    let policy = SyncPolicy::Always;

    let disk = SharedDisk::new();
    let mut server = run_workload(&ctx, &tenants, config, &disk, policy).expect("healthy");
    // Leave two requests in flight (admitted, never started) so compaction must retain
    // their Admitted records, not just settled outcomes.
    submit_stream(&mut server, &tenants, 1, 99, 2);
    server.sync_journal();

    let uncompacted = disk.snapshot();
    let bytes_before = server
        .durable_journal_mut()
        .expect("attached")
        .bytes_on_disk()
        .expect("readable");

    server.compact_journal().expect("live compaction succeeds");
    let compacted = disk.snapshot();
    let bytes_after = server
        .durable_journal_mut()
        .expect("attached")
        .bytes_on_disk()
        .expect("readable");
    // The two in-flight requests keep their Admitted records (embedded input
    // ciphertexts), so the floor is well above zero — but the four settled requests'
    // inputs must be gone.
    assert!(
        bytes_after * 4 < bytes_before * 3,
        "compaction must reclaim the settled requests' embedded ciphertexts: \
         {bytes_after} vs {bytes_before}"
    );

    let mut a = make_server(&ctx, &tenants, config);
    let ra = a
        .recover_from_store(Box::new(uncompacted), policy, ROTATE_AFTER)
        .expect("uncompacted recovers");
    let mut b = make_server(&ctx, &tenants, config);
    let rb = b
        .recover_from_store(Box::new(compacted), policy, ROTATE_AFTER)
        .expect("compacted recovers");

    assert_eq!(ra.settled.len(), rb.settled.len(), "settled sets diverged");
    for (got, want) in rb.settled.iter().zip(&ra.settled) {
        assert_equivalent("compacted vs uncompacted", got, want);
    }
    assert_eq!(ra.readmitted, rb.readmitted, "readmitted sets diverged");

    // Both replays of the in-flight requests produce bitwise-identical outcomes.
    let out_a = a.run();
    let out_b = b.run();
    assert_eq!(out_a.len(), 2, "two in-flight requests replay");
    for (got, want) in out_b.iter().zip(&out_a) {
        assert_equivalent("replay after compaction", got, want);
    }
}

#[test]
fn every_crash_during_compaction_preserves_the_journal_state() {
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| make_tenant(&ctx, 1100 + t as u64))
        .collect();
    let config = make_config(&ctx, TENANTS);
    let policy = SyncPolicy::Always;

    // Reference: workload + clean compaction; remember the op window compaction spans.
    let ref_disk = SharedDisk::new();
    let mut ref_server = run_workload(&ctx, &tenants, config, &ref_disk, policy).expect("healthy");
    submit_stream(&mut ref_server, &tenants, 1, 99, 2);
    ref_server.sync_journal();
    let ops_before_compaction = ref_disk.op_count();
    ref_server.compact_journal().expect("clean compaction");
    let ops_after_compaction = ref_disk.op_count();
    assert!(ops_after_compaction > ops_before_compaction + 10);
    let reference = {
        let mut replay = make_server(&ctx, &tenants, config);
        let report = replay
            .recover_from_store(Box::new(ref_disk.snapshot()), policy, ROTATE_AFTER)
            .expect("healthy disk recovers");
        let mut outcomes = report.settled;
        outcomes.extend(replay.run());
        outcomes.sort_by_key(RequestOutcome::request);
        outcomes
    };
    assert_eq!(reference.len(), 3 * TENANTS);

    for at in ops_before_compaction..ops_after_compaction {
        let disk = SharedDisk::new();
        let mut server = run_workload(&ctx, &tenants, config, &disk, policy).expect("healthy");
        submit_stream(&mut server, &tenants, 1, 99, 2);
        server.sync_journal();
        disk.arm_crash(at);
        let result = server.compact_journal();
        assert!(result.is_err(), "armed op {at} must kill the compaction");
        assert!(matches!(result, Err(StoreError::Storage(e)) if e.is_crash()));
        for seed in [5u64, 23] {
            let (surface, _) = disk.crash_surface(seed);
            let label = format!("compaction crash at op {at}, seed {seed}");
            // Everything was fsynced before compaction began, so recovery must produce
            // the FULL reference state — a crashed compaction may cost space, never data.
            let mut recovered = make_server(&ctx, &tenants, config);
            let report = recovered
                .recover_from_store(Box::new(surface), policy, ROTATE_AFTER)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let mut outcomes = report.settled;
            outcomes.extend(recovered.run());
            outcomes.sort_by_key(RequestOutcome::request);
            assert_eq!(outcomes.len(), reference.len(), "{label}: lost state");
            for (got, want) in outcomes.iter().zip(&reference) {
                assert_equivalent(&label, got, want);
            }
        }
    }
}

#[test]
fn a_file_backend_journal_matches_its_simdisk_twin_and_recovers_from_the_real_directory() {
    // Every other test in this file runs the journal over the simulated disk. The same
    // workload over a real directory must lay out the same files with the same bytes, and
    // recovering that directory must settle exactly what recovering the twin settles.
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| make_tenant(&ctx, 1400 + t as u64))
        .collect();
    let config = make_config(&ctx, TENANTS);
    let policy = SyncPolicy::Always;
    // Process-unique, so concurrent runs of this suite never share a directory.
    let dir = std::env::temp_dir().join(format!("fab-serve-file-twin-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let twin = SharedDisk::new();
    let mut on_twin = run_workload(&ctx, &tenants, config, &twin, policy).expect("healthy");
    let files = Box::new(FileBackend::open(&dir).expect("file backend"));
    let mut on_files = run_workload_on(&ctx, &tenants, config, files, policy).expect("healthy");
    let twin_journal = on_twin.durable_journal_mut().expect("attached");
    let file_journal = on_files.durable_journal_mut().expect("attached");
    assert_eq!(file_journal.files(), twin_journal.files());
    assert!(
        file_journal.files().len() > 1,
        "the workload rotates segments"
    );
    let mut to_read = file_journal.bytes_on_disk().expect("readable");
    assert_eq!(to_read, twin_journal.bytes_on_disk().expect("readable"));
    drop(on_files);

    let mut from_twin = make_server(&ctx, &tenants, config);
    let want = from_twin
        .recover_from_store(Box::new(twin.snapshot()), policy, ROTATE_AFTER)
        .expect("healthy twin recovers");
    assert_eq!(want.settled.len(), 2 * TENANTS);

    // Recovery leaves the store compacted, so the second pass reads the compacted shape.
    let mut bytes_read = Vec::new();
    for label in ["uncompacted directory", "compacted directory"] {
        bytes_read.push(to_read);
        let backend = FileBackend::open(&dir).expect("file backend");
        let mut recovered = make_server(&ctx, &tenants, config);
        let report = recovered
            .recover_from_store(Box::new(backend), policy, ROTATE_AFTER)
            .unwrap_or_else(|e| panic!("{label}: a healthy directory recovers: {e}"));
        assert_eq!(
            report.torn_bytes, 0,
            "{label}: clean shutdown tears nothing"
        );
        assert!(report.readmitted.is_empty(), "{label}: everything settled");
        assert_eq!(
            report.settled.len(),
            want.settled.len(),
            "{label}: lost state"
        );
        for (got, want) in report.settled.iter().zip(&want.settled) {
            assert_equivalent(label, got, want);
        }
        assert_eq!(recovered.executions(), 0, "{label}: nothing re-executes");
        let journal = recovered.durable_journal_mut().expect("reattached");
        to_read = journal.bytes_on_disk().expect("readable");
    }
    assert!(
        bytes_read[1] < bytes_read[0],
        "compaction reclaims the settled requests' inputs: {bytes_read:?}"
    );
    std::fs::remove_dir_all(&dir).expect("journal directory removed");
}

/// Rebuilds a healthy, fully-synced [`SimDisk`] holding exactly `files`.
fn disk_from_files(files: &[(String, Vec<u8>)]) -> SimDisk {
    let mut disk = SimDisk::new();
    for (name, bytes) in files {
        disk.create(name).unwrap();
        disk.append(name, bytes).unwrap();
        disk.flush(name).unwrap();
        disk.sync(name).unwrap();
    }
    disk.sync_dir().unwrap();
    disk
}

/// Rewrites the format-version word of every framed record of a journal byte log after
/// the first `skip`; returns the byte offset of the first record rewritten.
fn set_record_versions(log: &mut [u8], skip: usize, version: u8) -> usize {
    let mut starts = Vec::new();
    let mut offset = 0usize;
    while log.len() - offset >= 8 {
        starts.push(offset);
        offset += 8 + u64::from_le_bytes(log[offset..offset + 8].try_into().unwrap()) as usize;
    }
    for &start in &starts[skip..] {
        log[start + 8] = version;
    }
    starts[skip]
}

#[test]
fn an_active_segment_of_another_format_version_fails_typed_not_empty() {
    // A log written by a build with another record format is not crash damage. The lenient
    // open of the active segment used to end the log at its first undecodable record — the
    // header — and "recover" an empty journal, counting every byte as a torn tail.
    let ctx = make_ctx();
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| make_tenant(&ctx, 1300 + t as u64))
        .collect();
    let config = make_config(&ctx, TENANTS);
    let policy = SyncPolicy::Always;
    let disk = SharedDisk::new();
    let mut server = run_workload(&ctx, &tenants, config, &disk, policy).expect("healthy");
    server.sync_journal();

    let mut snapshot = disk.snapshot();
    let mut names = snapshot.list("seg-");
    names.sort();
    // One segment alone on the disk is the active one: exactly the lenient path, with no
    // sealed segment to fail strictly first. The first segment of the run holds records.
    let name = names.first().expect("a segment").clone();
    let pristine = snapshot.read(&name).unwrap();
    assert!(
        pristine.len() > 1000,
        "the segment holds admitted ciphertexts"
    );

    // The whole log is old-format, or only the records behind a current header are.
    for skip in [0, 1] {
        let mut active = pristine.clone();
        let first_old = set_record_versions(&mut active, skip, 1);
        let mut recovered = make_server(&ctx, &tenants, config);
        let err = recovered
            .recover_from_store(
                Box::new(disk_from_files(&[(name.clone(), active)])),
                policy,
                ROTATE_AFTER,
            )
            .expect_err("an old-format journal must not be recovered as empty");
        match err {
            StoreError::Corrupt(e) => {
                assert_eq!(e.offset, first_old, "{e}");
                assert!(
                    e.reason.contains("unsupported") && e.reason.contains("version 1"),
                    "{e}"
                );
            }
            StoreError::Storage(e) => panic!("storage error on a healthy disk: {e}"),
        }
    }
}

// Satellite gate: arbitrary truncation plus a single-bit flip at a random offset —
// landing in a sealed segment, the active segment, or the compacted base, across
// segment boundaries — yields clean-prefix recovery or a typed corruption error.
// Never a panic, never a fabricated outcome. Keygen dominates each case; a handful
// of cases still lands damage in every file of the layout across runs.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn prop_truncation_and_bit_flips_across_segments_recover_or_fail_typed(
        cut_sel in any::<u64>(),
        flip_sel in any::<u64>(),
        damage_last_only in any::<bool>(),
    ) {
        let ctx = make_ctx();
        let tenants: Vec<Tenant> = (0..TENANTS)
            .map(|t| make_tenant(&ctx, 1200 + t as u64))
            .collect();
        let config = make_config(&ctx, TENANTS);
        let policy = SyncPolicy::Always;

        let disk = SharedDisk::new();
        let mut server = run_workload(&ctx, &tenants, config, &disk, policy).expect("healthy");
        server.sync_journal();
        let reference_ids: Vec<u64> = (0..2 * TENANTS as u64).collect();

        // Snapshot the journal files, then damage them.
        let mut snapshot = disk.snapshot();
        let mut names = snapshot.list("cpt-");
        names.extend(snapshot.list("seg-"));
        names.sort();
        let mut files: Vec<(String, Vec<u8>)> = names
            .iter()
            .map(|n| (n.clone(), snapshot.read(n).unwrap()))
            .collect();
        prop_assert!(files.len() > 2, "need multiple segments");

        let pick = |sel: u64, files: &[(String, Vec<u8>)]| -> usize {
            if damage_last_only { files.len() - 1 } else { (sel % files.len() as u64) as usize }
        };
        let cut_file = pick(cut_sel, &files);
        if !files[cut_file].1.is_empty() {
            let cut = (cut_sel >> 8) as usize % files[cut_file].1.len();
            files[cut_file].1.truncate(cut);
        }
        let flip_file = pick(flip_sel, &files);
        if !files[flip_file].1.is_empty() {
            let at = (flip_sel >> 8) as usize % files[flip_file].1.len();
            files[flip_file].1[at] ^= 1 << ((flip_sel >> 3) % 8);
        }

        let damaged = disk_from_files(&files);
        let mut recovered = make_server(&ctx, &tenants, config);
        match recovered.recover_from_store(Box::new(damaged), policy, ROTATE_AFTER) {
            Ok(report) => {
                // Clean-prefix recovery: every surviving request id is a prefix of the
                // submission order, and nothing is fabricated.
                let mut ids: Vec<u64> = report
                    .settled
                    .iter()
                    .map(|o| o.request().0)
                    .chain(report.readmitted.iter().map(|r| r.0))
                    .collect();
                ids.sort_unstable();
                prop_assert!(ids.len() <= reference_ids.len());
                prop_assert_eq!(&ids[..], &reference_ids[..ids.len()], "not a prefix");
            }
            Err(StoreError::Corrupt(e)) => {
                // Typed rejection with a located offset — the acceptable outcome for
                // damage inside fully durable bytes.
                prop_assert!(!e.reason.is_empty());
            }
            Err(StoreError::Storage(e)) => {
                panic!("storage error on healthy disk: {e}");
            }
        }
    }
}

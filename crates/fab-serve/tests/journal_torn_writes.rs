//! The torn-write gate: truncating a journal at **every** byte offset recovers a clean
//! prefix (an append-only writer can only tear the tail), while corruption *inside* a
//! complete record is a typed [`CorruptJournal`] — never a panic, never a fabricated record.

mod common;

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use fab_ckks::CkksContext;
use fab_serve::{
    CorruptJournal, DurableJournal, FaultSpec, JournalRecord, RecoveredJournal, ServerConfig,
    TenantId,
};
use fab_store::{SharedDisk, StorageBackend, SyncPolicy};

use common::{make_ctx_with_scale, make_server, make_tenant, submit_stream, Tenant};

/// A journal segment exercising every record kind: `Header`, two `Admitted`, two `Shed`
/// (bounded queue, reject-newest), one `Started`+`Failed` (tenant 0's blobs corrupt) and one
/// `Started`+`Completed` (tenant 1 healthy) — the bytes a [`DurableJournal`] that never
/// rotates left on its disk. Built once; every test slices it read-only.
fn fixture() -> &'static (Arc<CkksContext>, Vec<u8>) {
    static FIXTURE: OnceLock<(Arc<CkksContext>, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ctx = make_ctx_with_scale(40);
        let tenants: Vec<Tenant> = (0..2).map(|t| make_tenant(&ctx, 900 + t)).collect();
        let mut server = make_server(
            &ctx,
            &tenants,
            ServerConfig {
                cache_budget_bytes: 1 << 20,
                prefetch: true,
                lookahead: 8,
                queue_capacity: Some(2),
                ..ServerConfig::default()
            },
        );
        let disk = SharedDisk::new();
        let journal = DurableJournal::create(
            Box::new(disk.clone()),
            ctx.clone(),
            SyncPolicy::Always,
            u64::MAX,
        )
        .expect("healthy disk");
        let segment = journal.active_segment();
        server.attach_durable_journal(journal);
        server.inject_fault(TenantId(0), FaultSpec::corrupt(999));
        submit_stream(&mut server, &tenants, 2, 0, 2);
        let _ = server.run();
        let bytes = disk.snapshot().read(&segment).expect("the one segment");
        (ctx, bytes)
    })
}

/// Cumulative end offset of every complete record (header included), by walking the
/// length-prefix framing independently of the decoder.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut offset = 0usize;
    while bytes.len() - offset >= 8 {
        let len = u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap()) as usize;
        if len > bytes.len() - offset - 8 {
            break;
        }
        offset += 8 + len;
        boundaries.push(offset);
    }
    boundaries
}

fn full_records(ctx: &Arc<CkksContext>, bytes: &[u8]) -> Vec<JournalRecord> {
    RecoveredJournal::open(bytes, ctx)
        .expect("untouched journal is clean")
        .records
}

#[test]
fn the_fixture_journal_exercises_every_record_kind() {
    let (ctx, bytes) = fixture();
    let records = full_records(ctx, bytes);
    assert!(records
        .iter()
        .any(|r| matches!(r, JournalRecord::Admitted { .. })));
    assert!(records
        .iter()
        .any(|r| matches!(r, JournalRecord::Shed { .. })));
    assert!(records
        .iter()
        .any(|r| matches!(r, JournalRecord::Started { .. })));
    assert!(records
        .iter()
        .any(|r| matches!(r, JournalRecord::Completed { .. })));
    assert!(records
        .iter()
        .any(|r| matches!(r, JournalRecord::Failed { .. })));
}

#[test]
fn truncation_at_every_byte_offset_recovers_a_clean_prefix() {
    let (ctx, bytes) = fixture();
    let boundaries = record_boundaries(bytes);
    let records = full_records(ctx, bytes);
    assert_eq!(boundaries.len(), records.len() + 1, "header plus records");
    for cut in 0..=bytes.len() {
        let recovered = RecoveredJournal::open(&bytes[..cut], ctx)
            .unwrap_or_else(|e| panic!("truncation at {cut} must recover, got: {e}"));
        let complete = boundaries.iter().filter(|&&b| b <= cut).count();
        if complete == 0 {
            // Even the header was torn: nothing is kept, everything counted as torn.
            assert_eq!(recovered.torn_bytes, cut);
            assert!(recovered.records.is_empty());
            assert_eq!(recovered.clean_len, 0, "not even a header");
        } else {
            let clean_len = boundaries[complete - 1];
            assert_eq!(recovered.torn_bytes, cut - clean_len, "cut at {cut}");
            // Exactly the complete records survive — never a fabricated one.
            assert_eq!(recovered.records.len(), complete - 1, "cut at {cut}");
            assert_eq!(
                &recovered.records[..],
                &records[..complete - 1],
                "cut at {cut}"
            );
            // What is kept is byte-for-byte the clean prefix.
            assert_eq!(recovered.clean_len, clean_len, "cut at {cut}");
        }
    }
}

#[test]
fn corruption_inside_a_complete_record_is_typed_with_the_record_offset() {
    let (ctx, bytes) = fixture();
    let boundaries = record_boundaries(bytes);
    let mut start = 0usize;
    for &end in &boundaries {
        // Flip the last payload bit of the record: framing is intact, so this is not a
        // tear — the checksum must catch it and attribute the record's start offset.
        let mut mutated = bytes.clone();
        mutated[end - 1] ^= 0x80;
        let err =
            RecoveredJournal::open(&mutated, ctx).expect_err("payload corruption must be typed");
        assert_eq!(err.offset, start);
        assert!(!err.reason.is_empty());
        assert!(
            err.to_string()
                .starts_with(&format!("corrupt journal at byte {start}")),
            "{err}"
        );
        start = end;
    }
}

#[test]
fn a_journal_from_different_parameters_is_rejected_by_fingerprint() {
    let (_, bytes) = fixture();
    let other = make_ctx_with_scale(39);
    let err = RecoveredJournal::open(bytes, &other).expect_err("fingerprint mismatch");
    assert_eq!(err.offset, 0);
    assert!(err.reason.contains("fingerprint"), "{err}");
}

#[test]
fn trailing_garbage_claiming_more_bytes_than_exist_is_a_torn_tail() {
    let (ctx, bytes) = fixture();
    let mut grown = bytes.clone();
    grown.extend_from_slice(&u64::MAX.to_le_bytes());
    grown.extend_from_slice(&[0xAB; 21]);
    let recovered = RecoveredJournal::open(&grown, ctx).expect("tail is torn, not corrupt");
    assert_eq!(recovered.torn_bytes, 8 + 21);
    assert_eq!(&grown[..recovered.clean_len], bytes.as_slice());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    // Any single bit flip anywhere in the journal either recovers a clean prefix of the
    // *original* bytes (the flip landed in what becomes the torn tail — e.g. a length
    // prefix inflated past the remaining bytes) or reports a typed `CorruptJournal`.
    // It never panics and never yields a record the original journal did not contain.
    #[test]
    fn prop_single_bit_flips_never_panic_and_never_fabricate(bit_seed in any::<u64>()) {
        let (ctx, bytes) = fixture();
        let records = full_records(ctx, bytes);
        let pos = (bit_seed % (bytes.len() as u64 * 8)) as usize;
        let mut mutated = bytes.clone();
        mutated[pos / 8] ^= 1 << (pos % 8);
        match RecoveredJournal::open(&mutated, ctx) {
            Ok(recovered) => {
                // The kept bytes are a prefix of the *original*: a flip inside anything
                // recovery kept would have failed its checksum, so a surviving flip can
                // only be in the torn tail (all of it, if the header itself tore).
                let clean = recovered.clean_len;
                prop_assert!(
                    mutated[..clean] == bytes[..clean],
                    "flip at bit {pos}: recovered bytes are not a prefix of the original"
                );
                prop_assert!(recovered.records.len() <= records.len());
                prop_assert_eq!(
                    &recovered.records[..],
                    &records[..recovered.records.len()],
                    "flip at bit {} fabricated or altered a record", pos
                );
            }
            Err(CorruptJournal { offset, reason }) => {
                prop_assert!(offset <= pos / 8, "attributed offset {offset} past the flip");
                prop_assert!(!reason.is_empty());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    // Random truncation combined with a bit flip in the surviving prefix: still either a
    // clean recovery or a typed error — the two failure modes compose without panics.
    #[test]
    fn prop_truncate_then_flip_composes(cut_seed in any::<u64>(), bit_seed in any::<u64>()) {
        let (ctx, bytes) = fixture();
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        let mut mutated = bytes[..cut].to_vec();
        if !mutated.is_empty() {
            let pos = (bit_seed % (mutated.len() as u64 * 8)) as usize;
            mutated[pos / 8] ^= 1 << (pos % 8);
        }
        match RecoveredJournal::open(&mutated, ctx) {
            Ok(recovered) => {
                // Same prefix property as the single-flip case: whatever recovery kept is
                // byte-for-byte a prefix of the original journal, and the decoded records
                // are a prefix of the original's — never fabricated, never altered.
                let clean = recovered.clean_len;
                prop_assert_eq!(clean + recovered.torn_bytes, mutated.len());
                prop_assert!(
                    mutated[..clean] == bytes[..clean],
                    "recovered bytes are not a prefix of the original"
                );
                let records = full_records(ctx, bytes);
                prop_assert_eq!(&recovered.records[..], &records[..recovered.records.len()]);
            }
            Err(CorruptJournal { offset, reason }) => {
                prop_assert!(offset < mutated.len());
                prop_assert!(!reason.is_empty());
            }
        }
    }
}

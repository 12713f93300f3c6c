//! Decoder totality: every blob decoder in the workspace is a total function of its input
//! bytes. Fed arbitrary bytes, or an arbitrary mutation of a valid blob, each one returns
//! either `Ok` of a value that **re-encodes to the identical bytes** or a **typed error** —
//! never a panic, never a value that encodes differently from what was read.
//!
//! One property per blob kind: switching key, ciphertext snapshot, plaintext snapshot,
//! journal segment (a stream of framed records), compaction base, training checkpoint. The
//! mutations deliberately include *re-sealed* ones — the damaged bytes get a freshly computed
//! checksum — because a mutation the checksum catches only ever exercises the first gate;
//! the geometry and field validation behind it is what must be total on its own.
//!
//! Run under the debug profile (`cargo test`, never only `--release`): integer-overflow
//! checks and debug assertions are what turned PR 8's header-geometry overflow from a wrong
//! answer into a finding.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;

use fab_ckks::wire;
use fab_ckks::{
    Ciphertext, CkksContext, CkksError, CkksParams, Encoder, Encryptor, KeyGenerator, Plaintext,
    SecretKey, SwitchingKey,
};
use fab_lr::TrainingCheckpoint;
use fab_serve::journal::fold_requests;
use fab_serve::{
    DurableJournal, FaultClass, JournalRecord, Program, RecoveredJournal, RequestId, ServeOp,
    StoreError, TenantId,
};
use fab_store::{write_atomic, SimDisk, SyncPolicy};

struct Fixture {
    ctx: Arc<CkksContext>,
    key: Vec<u8>,
    ciphertext: Vec<u8>,
    plaintext: Vec<u8>,
    /// A journal byte log holding one record of every request-lifecycle kind.
    segment: Vec<u8>,
    /// The same records sealed by a trailing `Checkpoint` marker.
    base: Vec<u8>,
    checkpoint: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = CkksParams::builder()
            .log_n(5)
            .scale_bits(40)
            .first_prime_bits(50)
            .max_level(2)
            .dnum(2)
            .secret_hamming_weight(Some(16))
            .build()
            .expect("valid small parameters");
        let ctx = CkksContext::new_arc(params).expect("context");
        let mut rng = ChaCha20Rng::seed_from_u64(0x707A);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keygen = KeyGenerator::new(ctx.clone(), sk);
        let pk = keygen.public_key(&mut rng);
        let key = keygen.relinearization_key(&mut rng).key.to_bytes();
        let values: Vec<f64> = (0..ctx.slot_count())
            .map(|i| (i as f64 * 0.2).sin())
            .collect();
        let pt = Encoder::new(ctx.clone())
            .encode_real(
                &values,
                ctx.params().default_scale(),
                ctx.params().max_level,
            )
            .expect("encode");
        let ct = Encryptor::new(ctx.clone(), pk)
            .encrypt(&pt, &mut rng)
            .expect("encrypt");

        let records = [
            JournalRecord::Admitted {
                request: RequestId(0),
                tenant: TenantId(1),
                submitted_us: 10,
                program: Program::new(vec![
                    ServeOp::Square,
                    ServeOp::Rotate(3),
                    ServeOp::Conjugate,
                    ServeOp::AddSelf,
                ]),
                input: ct.clone(),
            },
            JournalRecord::Shed {
                request: RequestId(1),
                tenant: TenantId(0),
                queue_depth: 4,
            },
            JournalRecord::Started {
                request: RequestId(0),
            },
            JournalRecord::Completed {
                request: RequestId(0),
                tenant: TenantId(1),
                timings_us: [1, 2, 3, 6],
                ops: 4,
                key_accesses: 3,
                output: ct.clone(),
            },
            JournalRecord::Failed {
                request: RequestId(2),
                tenant: TenantId(0),
                class: FaultClass::Transient,
                description: "fetch of Relin failed after 3 attempts: flaky".into(),
            },
        ];
        let segment = encode_stream(&records, &ctx);
        let marker = JournalRecord::Checkpoint {
            retained: records.len() as u64,
        };
        let base = [segment.clone(), marker.to_framed_bytes(&ctx)].concat();
        let checkpoint = TrainingCheckpoint {
            iteration: 5,
            weights: ct.clone(),
        }
        .to_bytes(&ctx);
        Fixture {
            key,
            ciphertext: ct.to_bytes(&ctx),
            plaintext: pt.to_bytes(&ctx),
            segment,
            base,
            checkpoint,
            ctx,
        }
    })
}

/// Uniform in `0..bound` (`0` for an empty range, so callers need no guard).
fn below(rng: &mut ChaCha20Rng, bound: usize) -> usize {
    rng.gen_range(0..bound.max(1))
}

/// Random bytes of a random length drawn from `len`.
fn random_bytes(rng: &mut ChaCha20Rng, len: std::ops::Range<usize>) -> Vec<u8> {
    let mut bytes = vec![0u8; rng.gen_range(len)];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// Values that sit on the edges validation has to hold: zero, one, sign and size limits.
fn edge_word(rng: &mut ChaCha20Rng) -> u64 {
    match below(rng, 8) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => 1 << 63,
        4 => u32::MAX as u64 + 1,
        5 => rng.next_u64() % 64,
        _ => rng.next_u64(),
    }
}

/// Recomputes the checksum word of the blob at `bytes[..]` (no-op on anything shorter than
/// a header), so the mutation reaches the decoder's field validation.
fn reseal_blob(bytes: &mut [u8]) {
    if bytes.len() >= wire::HEADER_BYTES {
        let sum = wire::checksum(&bytes[wire::HEADER_BYTES..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
    }
}

/// Re-seals a checkpoint blob inside out: the nested weight snapshot (after the iteration
/// word and its own length word), then the checkpoint around it.
fn reseal_checkpoint(bytes: &mut [u8]) {
    let nested = wire::HEADER_BYTES + 16;
    if bytes.len() > nested {
        reseal_blob(&mut bytes[nested..]);
    }
    reseal_blob(bytes);
}

/// Re-seals every well-framed record of a journal byte log.
fn reseal_stream(bytes: &mut [u8]) {
    let mut offset = 0usize;
    while bytes.len() - offset >= 8 {
        let len = u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"));
        let Ok(len) = usize::try_from(len) else { break };
        if len > bytes.len() - offset - 8 {
            break;
        }
        reseal_blob(&mut bytes[offset + 8..offset + 8 + len]);
        offset += 8 + len;
    }
}

/// One arbitrary input derived from `seed`: arbitrary bytes (bare, or behind the valid
/// blob's own header so they get past the magic check), or a mutation of `valid` — bit
/// flips, edge-value word overwrites biased towards the geometry words at the front,
/// truncation, extension, an internal splice — re-sealed half the time.
fn arbitrary_input(valid: &[u8], seed: u64, reseal: fn(&mut [u8])) -> Vec<u8> {
    let rng = &mut ChaCha20Rng::seed_from_u64(seed);
    let mut bytes = valid.to_vec();
    match below(rng, 8) {
        0 => bytes = random_bytes(rng, 0..400),
        1 => {
            bytes.truncate(below(rng, valid.len().min(96) + 1));
            bytes.extend(random_bytes(rng, 0..200));
        }
        2 => {
            for _ in 0..=below(rng, 4) {
                let bit = below(rng, bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        3 | 4 => {
            for _ in 0..=below(rng, 3) {
                let words = bytes.len() / 8;
                let span = if below(rng, 2) == 0 {
                    words.min(24)
                } else {
                    words
                };
                let at = below(rng, span) * 8;
                bytes[at..at + 8].copy_from_slice(&edge_word(rng).to_le_bytes());
            }
        }
        5 => bytes.truncate(below(rng, bytes.len() + 1)),
        6 => bytes.extend(random_bytes(rng, 1..65)),
        _ => {
            let len = 1 + below(rng, bytes.len().min(128));
            let from = below(rng, bytes.len() - len + 1);
            let to = below(rng, bytes.len() - len + 1);
            bytes.copy_within(from..from + len, to);
        }
    }
    if below(rng, 2) == 0 {
        reseal(&mut bytes);
    }
    bytes
}

/// A journal byte log of exactly these records: the header the writer puts first, then each
/// record framed — what a segment holding them is, byte for byte.
fn encode_stream(records: &[JournalRecord], ctx: &CkksContext) -> Vec<u8> {
    let header = JournalRecord::Header {
        fingerprint: wire::param_fingerprint(ctx.params()),
    };
    std::iter::once(&header)
        .chain(records)
        .flat_map(|record| record.to_framed_bytes(ctx))
        .collect()
}

/// `open` and `open_lenient` over one input: `Ok` must hand back a clean prefix of the input
/// whose decoded records re-encode to exactly those bytes.
fn check_journal_stream(input: &[u8], ctx: &Arc<CkksContext>) {
    let opens = [RecoveredJournal::open, RecoveredJournal::open_lenient];
    for open in opens {
        match open(input, ctx) {
            Ok(recovered) => {
                assert_eq!(recovered.clean_len + recovered.torn_bytes, input.len());
                let kept = &input[..recovered.clean_len];
                // Either a clean prefix of the input was kept, or nothing survived — not
                // even a header, so no record either.
                if kept.is_empty() {
                    assert!(recovered.records.is_empty());
                    continue;
                }
                let reencoded = encode_stream(&recovered.records, ctx);
                assert!(
                    reencoded == kept,
                    "decoded records re-encode to {} bytes, were read from {}; first \
                     difference at byte {:?}",
                    reencoded.len(),
                    kept.len(),
                    reencoded.iter().zip(kept).position(|(a, b)| a != b)
                );
            }
            Err(e) => assert!(!e.reason.is_empty()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn switching_key_decoder_is_total(seed in any::<u64>()) {
        let input = arbitrary_input(&fixture().key, seed, reseal_blob);
        match SwitchingKey::from_bytes(&input) {
            Ok(key) => prop_assert_eq!(key.to_bytes(), input),
            Err(CkksError::CorruptKey { reason }) => prop_assert!(!reason.is_empty()),
            Err(other) => panic!("untyped rejection: {other:?}"),
        }
    }

    #[test]
    fn ciphertext_snapshot_decoder_is_total(seed in any::<u64>()) {
        let f = fixture();
        let input = arbitrary_input(&f.ciphertext, seed, reseal_blob);
        match Ciphertext::from_bytes(&input, &f.ctx) {
            Ok(ct) => prop_assert_eq!(ct.to_bytes(&f.ctx), input),
            Err(CkksError::CorruptSnapshot { reason }) => prop_assert!(!reason.is_empty()),
            Err(other) => panic!("untyped rejection: {other:?}"),
        }
    }

    #[test]
    fn plaintext_snapshot_decoder_is_total(seed in any::<u64>()) {
        let f = fixture();
        let input = arbitrary_input(&f.plaintext, seed, reseal_blob);
        match Plaintext::from_bytes(&input, &f.ctx) {
            Ok(pt) => prop_assert_eq!(pt.to_bytes(&f.ctx), input),
            Err(CkksError::CorruptSnapshot { reason }) => prop_assert!(!reason.is_empty()),
            Err(other) => panic!("untyped rejection: {other:?}"),
        }
    }

    #[test]
    fn journal_segment_decoder_is_total(seed in any::<u64>()) {
        let f = fixture();
        check_journal_stream(&arbitrary_input(&f.segment, seed, reseal_stream), &f.ctx);
    }

    #[test]
    fn training_checkpoint_decoder_is_total(seed in any::<u64>()) {
        let f = fixture();
        let input = arbitrary_input(&f.checkpoint, seed, reseal_checkpoint);
        match TrainingCheckpoint::from_bytes(&input, &f.ctx) {
            Ok(checkpoint) => prop_assert_eq!(checkpoint.to_bytes(&f.ctx), input),
            Err(CkksError::CorruptSnapshot { reason }) => prop_assert!(!reason.is_empty()),
            Err(other) => panic!("untyped rejection: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // The compaction base is decoded twice over: as a record stream (the marker is one more
    // record kind), and by recovery's base selection, which must accept it only when its
    // trailing marker is complete and otherwise fail typed — here nothing older covers it.
    #[test]
    fn compaction_base_decoder_is_total(seed in any::<u64>()) {
        let f = fixture();
        let input = arbitrary_input(&f.base, seed, reseal_stream);
        check_journal_stream(&input, &f.ctx);

        let mut disk = SimDisk::new();
        write_atomic(&mut disk, "cpt-00000003.wal", &input).unwrap();
        match DurableJournal::recover(Box::new(disk), f.ctx.clone(), SyncPolicy::Always, 64) {
            Ok(recovered) => {
                // Accepted: then it decoded as a marker-complete stream, and recovery folded
                // exactly the records in front of the marker.
                let mut opened = RecoveredJournal::open(&input, &f.ctx).expect("accepted base");
                prop_assert_eq!(opened.torn_bytes, 0);
                prop_assert_eq!(recovered.files_folded, 1);
                opened.records.pop();
                prop_assert_eq!(recovered.requests, fold_requests(opened.records));
            }
            Err(StoreError::Corrupt(e)) => prop_assert!(!e.reason.is_empty()),
            Err(StoreError::Storage(e)) => panic!("storage error on a healthy disk: {e}"),
        }
    }
}

/// A version-1 blob: the layout of version 2 with the version word saying 1. (Version 1's
/// checksum word held an FNV-1a digest; its value is irrelevant, the version is refused
/// before anything is hashed.)
fn as_version_1(valid: &[u8]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    assert_eq!(bytes[0..2], [2, 0], "fixture blobs are version 2");
    bytes[0] = 1;
    bytes
}

#[test]
fn version_1_blobs_of_every_kind_are_refused_by_version() {
    let f = fixture();
    let unsupported = |reason: &str| {
        assert!(
            reason.contains("unsupported") && reason.contains("version 1 (expected 2)"),
            "refusal must name the version, not a checksum: {reason}"
        );
    };
    match SwitchingKey::from_bytes(&as_version_1(&f.key)) {
        Err(CkksError::CorruptKey { reason }) => unsupported(&reason),
        other => panic!("v1 key: {other:?}"),
    }
    match Ciphertext::from_bytes(&as_version_1(&f.ciphertext), &f.ctx) {
        Err(CkksError::CorruptSnapshot { reason }) => unsupported(&reason),
        other => panic!("v1 ciphertext: {other:?}"),
    }
    match Plaintext::from_bytes(&as_version_1(&f.plaintext), &f.ctx) {
        Err(CkksError::CorruptSnapshot { reason }) => unsupported(&reason),
        other => panic!("v1 plaintext: {other:?}"),
    }
    match TrainingCheckpoint::from_bytes(&as_version_1(&f.checkpoint), &f.ctx) {
        Err(CkksError::CorruptSnapshot { reason }) => unsupported(&reason),
        other => panic!("v1 checkpoint: {other:?}"),
    }
    // Journal: the header record of the log is version 1. Strict and lenient opens both
    // refuse — lenient must not "recover" another build's log as an empty journal.
    let mut v1_log = f.segment.clone();
    assert_eq!(v1_log[8..10], [2, 0], "first record's version word");
    v1_log[8] = 1;
    for open in [RecoveredJournal::open, RecoveredJournal::open_lenient] {
        let err = open(&v1_log, &f.ctx).expect_err("v1 journal");
        assert_eq!(err.offset, 0);
        unsupported(&err.reason);
    }
}

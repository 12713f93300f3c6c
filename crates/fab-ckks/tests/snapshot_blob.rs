//! Snapshot-blob gate: `FABCTX`/`FABPTX` snapshots round-trip bitwise under the writing
//! context, and every corruption mode — header mutation, body bit flips, truncation,
//! extension, wrong parameters — is rejected by [`Ciphertext::from_bytes`] /
//! [`Plaintext::from_bytes`] with a **typed** [`CkksError::CorruptSnapshot`], never a panic.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{
    ciphertext_snapshot_bytes, Ciphertext, CkksContext, CkksError, CkksParams, Decryptor, Encoder,
    Encryptor, KeyGenerator, Plaintext, SecretKey,
};

fn small_params() -> CkksParams {
    CkksParams::builder()
        .log_n(5)
        .scale_bits(40)
        .first_prime_bits(50)
        .max_level(2)
        .dnum(2)
        .secret_hamming_weight(Some(16))
        .build()
        .expect("valid small parameters")
}

struct Fixture {
    ctx: Arc<CkksContext>,
    decryptor: Decryptor,
    plaintext: Plaintext,
    ciphertext: Ciphertext,
}

fn make_fixture(params: CkksParams) -> Fixture {
    let ctx = CkksContext::new_arc(params).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(0x5AFE);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), keygen.public_key(&mut rng));
    let decryptor = Decryptor::new(ctx.clone(), sk);
    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..ctx.degree() / 2)
        .map(|i| (i as f64 * 0.7).sin())
        .collect();
    let plaintext = encoder
        .encode_real(&values, scale, ctx.params().max_level)
        .expect("encode");
    let ciphertext = encryptor.encrypt(&plaintext, &mut rng).expect("encrypt");
    Fixture {
        ctx,
        decryptor,
        plaintext,
        ciphertext,
    }
}

fn expect_corrupt_ct(label: String, bytes: &[u8], ctx: &CkksContext) {
    match Ciphertext::from_bytes(bytes, ctx) {
        Err(CkksError::CorruptSnapshot { .. }) => {}
        Err(other) => panic!("{label}: expected CorruptSnapshot, got {other:?}"),
        Ok(_) => panic!("{label}: mutated snapshot deserialized successfully"),
    }
}

#[test]
fn snapshots_round_trip_bitwise_and_decrypt_identically() {
    let f = make_fixture(small_params());
    let ct_blob = f.ciphertext.to_bytes(&f.ctx);
    assert_eq!(
        ct_blob.len(),
        ciphertext_snapshot_bytes(f.ctx.params(), f.ciphertext.level()),
        "closed-form snapshot size must match the actual blob"
    );
    let ct_back = Ciphertext::from_bytes(&ct_blob, &f.ctx).expect("pristine ciphertext");
    assert_eq!(ct_back, f.ciphertext, "snapshot round trip is bitwise");
    assert_eq!(
        ct_back.to_bytes(&f.ctx),
        ct_blob,
        "re-serialization is stable"
    );
    assert_eq!(
        f.decryptor
            .decrypt(&ct_back)
            .expect("decrypt")
            .poly()
            .data(),
        f.decryptor
            .decrypt(&f.ciphertext)
            .expect("decrypt")
            .poly()
            .data(),
        "restored ciphertext decrypts to bit-identical plaintext words"
    );

    let pt_blob = f.plaintext.to_bytes(&f.ctx);
    let pt_back = Plaintext::from_bytes(&pt_blob, &f.ctx).expect("pristine plaintext");
    assert_eq!(pt_back, f.plaintext);
    assert_eq!(pt_back.to_bytes(&f.ctx), pt_blob);
}

#[test]
fn every_header_word_mutation_is_a_typed_rejection() {
    let f = make_fixture(small_params());
    let blob = f.ciphertext.to_bytes(&f.ctx);
    // Words 0..8: magic|version, checksum, fingerprint, degree, limbs, level, scale, domains.
    for word in 0..8 {
        for bit in 0..64u64 {
            let mut mutated = blob.clone();
            mutated[word * 8 + (bit / 8) as usize] ^= 1 << (bit % 8);
            expect_corrupt_ct(format!("header word {word} bit {bit}"), &mutated, &f.ctx);
        }
    }
}

#[test]
fn sampled_body_flips_truncations_and_extensions_are_rejected() {
    let f = make_fixture(small_params());
    let blob = f.ciphertext.to_bytes(&f.ctx);
    let body = 64..blob.len();
    let stride = (body.len() / 64).max(1);
    for (i, pos) in body.step_by(stride).enumerate() {
        let mut mutated = blob.clone();
        mutated[pos] ^= 1 << (i % 8);
        expect_corrupt_ct(format!("body byte {pos}"), &mutated, &f.ctx);
    }
    for len in [0, 1, 15, 16, 63, 64, blob.len() / 2, blob.len() - 1] {
        expect_corrupt_ct(format!("truncated to {len}"), &blob[..len], &f.ctx);
    }
    for extra in [1usize, 8, 4096] {
        let mut mutated = blob.clone();
        mutated.extend(std::iter::repeat_n(0xCDu8, extra));
        expect_corrupt_ct(format!("extended by {extra}"), &mutated, &f.ctx);
    }
}

#[test]
fn plaintext_snapshots_reject_mutation_too() {
    let f = make_fixture(small_params());
    let blob = f.plaintext.to_bytes(&f.ctx);
    for pos in [0usize, 9, 17, 40, 56, 70, blob.len() - 1] {
        let mut mutated = blob.clone();
        mutated[pos] ^= 0x20;
        match Plaintext::from_bytes(&mutated, &f.ctx) {
            Err(CkksError::CorruptSnapshot { .. }) => {}
            other => panic!("byte {pos}: expected CorruptSnapshot, got {other:?}"),
        }
    }
    // A ciphertext blob is not a plaintext blob (magic differs).
    let ct_blob = f.ciphertext.to_bytes(&f.ctx);
    assert!(matches!(
        Plaintext::from_bytes(&ct_blob, &f.ctx),
        Err(CkksError::CorruptSnapshot { .. })
    ));
}

#[test]
fn snapshots_are_rejected_under_a_different_parameter_set() {
    let f = make_fixture(small_params());
    let blob = f.ciphertext.to_bytes(&f.ctx);
    // Same ring degree and limb structure, different scale bits: only the fingerprint can
    // tell the two contexts apart — and it must.
    let other = CkksParams::builder()
        .log_n(5)
        .scale_bits(39)
        .first_prime_bits(50)
        .max_level(2)
        .dnum(2)
        .secret_hamming_weight(Some(16))
        .build()
        .expect("valid small parameters");
    let other_ctx = CkksContext::new_arc(other).expect("context");
    expect_corrupt_ct("wrong parameters".into(), &blob, &other_ctx);
}

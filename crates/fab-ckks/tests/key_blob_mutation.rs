//! Key-blob mutation gate: every corruption of a serialized [`SwitchingKey`] — any header
//! field, any sampled body byte, truncation, extension — is rejected by
//! [`SwitchingKey::from_bytes`] with a **typed** [`CkksError::CorruptKey`], never a panic,
//! and never a silently wrong key.
//!
//! The blob format is a 48-byte header (magic|version, checksum, degree, limb count, alpha,
//! dnum — six little-endian `u64` words) followed by the digit payload; the checksum covers
//! everything past the first 16 bytes, so a single flipped bit anywhere is detectable.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{CkksContext, CkksError, CkksParams, KeyGenerator, SecretKey, SwitchingKey};

fn make_blob() -> Vec<u8> {
    let params = CkksParams::builder()
        .log_n(5)
        .scale_bits(40)
        .first_prime_bits(50)
        .max_level(2)
        .dnum(2)
        .secret_hamming_weight(Some(16))
        .build()
        .expect("valid small parameters");
    let ctx: Arc<CkksContext> = CkksContext::new_arc(params).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(0xB10B);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx, sk);
    keygen.relinearization_key(&mut rng).key.to_bytes()
}

fn expect_corrupt(label: String, bytes: &[u8]) {
    match SwitchingKey::from_bytes(bytes) {
        Err(CkksError::CorruptKey { .. }) => {}
        Err(other) => panic!("{label}: expected CorruptKey, got {other:?}"),
        Ok(_) => panic!("{label}: mutated blob deserialized successfully"),
    }
}

#[test]
fn pristine_blob_round_trips_bitwise() {
    let blob = make_blob();
    let key = SwitchingKey::from_bytes(&blob).expect("pristine blob deserializes");
    assert_eq!(key.to_bytes(), blob, "round trip must be bitwise identical");
}

#[test]
fn every_header_field_mutation_is_a_typed_rejection() {
    let blob = make_blob();
    let fields = [
        "magic|version",
        "checksum",
        "degree",
        "limb_count",
        "alpha",
        "dnum",
    ];
    // Flip every bit of every header word: bad magic, bad version, a checksum that no longer
    // matches, and geometry words whose change the checksum catches (or, for wild values,
    // the overflow/zero guards catch first). All must be CorruptKey; none may panic.
    for (field, name) in fields.iter().enumerate() {
        for bit in 0..64u64 {
            let mut mutated = blob.clone();
            mutated[field * 8 + (bit / 8) as usize] ^= 1 << (bit % 8);
            expect_corrupt(format!("header {name} bit {bit}"), &mutated);
        }
    }
}

#[test]
fn zeroed_and_overflowing_geometry_are_rejected() {
    let blob = make_blob();
    for field in 2..6 {
        let mut mutated = blob.clone();
        mutated[field * 8..field * 8 + 8].copy_from_slice(&0u64.to_le_bytes());
        expect_corrupt(format!("zeroed header word {field}"), &mutated);
        let mut mutated = blob.clone();
        mutated[field * 8..field * 8 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        expect_corrupt(format!("maxed header word {field}"), &mutated);
    }
}

#[test]
fn sampled_body_byte_flips_are_typed_rejections() {
    let blob = make_blob();
    let body = 48..blob.len();
    // Sample the payload on a stride (covering first, interior and last bytes) and flip a
    // different bit at each sampled position: the content checksum must catch every one.
    let stride = (body.len() / 64).max(1);
    for (i, pos) in body.clone().step_by(stride).enumerate() {
        let mut mutated = blob.clone();
        mutated[pos] ^= 1 << (i % 8);
        expect_corrupt(format!("body byte {pos}"), &mutated);
    }
    let mut mutated = blob.clone();
    let last = blob.len() - 1;
    mutated[last] ^= 0x80;
    expect_corrupt(format!("final body byte {last}"), &mutated);
}

#[test]
fn truncated_and_oversized_blobs_are_typed_rejections() {
    let blob = make_blob();
    // Truncations: inside the header, exactly at the header boundary, and inside the body.
    for len in [0, 1, 15, 16, 47, 48, 49, blob.len() / 2, blob.len() - 1] {
        expect_corrupt(format!("truncated to {len}"), &blob[..len]);
    }
    // Extensions: trailing garbage must not be silently ignored.
    for extra in [1usize, 8, 4096] {
        let mut mutated = blob.clone();
        mutated.extend(std::iter::repeat_n(0xABu8, extra));
        expect_corrupt(format!("extended by {extra}"), &mutated);
    }
}

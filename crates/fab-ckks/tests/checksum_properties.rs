//! Property gate for [`fab_ckks::wire::checksum`], the one integrity check under every blob
//! kind in the workspace.
//!
//! The format's promise is deterministic, not probabilistic, for the damage storage actually
//! inflicts most often: **any change confined to one aligned 8-byte word changes the
//! checksum**. That is checked exhaustively here (every bit, every word) over lengths that
//! straddle the word width (8) and the lane block (32). Truncation and extension are
//! probabilistic by construction (1 − 2⁻⁶⁴), so for them the gate is that no two prefixes of
//! a buffer, and no two zero runs, collide. A golden vector pins the function: the checksum
//! *is* the wire format, and a silent change would orphan every stored blob.

use std::collections::HashSet;

use fab_ckks::wire::checksum;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;

/// Lengths straddling the word width, the four-lane block, and a multi-block body with an
/// odd tail.
const LENGTHS: [usize; 8] = [0, 1, 7, 8, 31, 32, 33, 4096 + 5];

/// Seeded random bytes: the checksum must not depend on any structure in its input.
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    ChaCha20Rng::seed_from_u64(seed).fill_bytes(&mut bytes);
    bytes
}

#[test]
fn every_single_bit_flip_changes_the_checksum() {
    for len in LENGTHS {
        let bytes = random_bytes(len as u64 + 1, len);
        let clean = checksum(&bytes);
        let mut mutated = bytes.clone();
        for bit in 0..len * 8 {
            mutated[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&mutated), clean, "length {len}, bit {bit}");
            mutated[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(mutated, bytes);
    }
}

#[test]
fn every_single_word_substitution_changes_the_checksum() {
    for len in LENGTHS {
        let bytes = random_bytes(len as u64 + 101, len);
        let clean = checksum(&bytes);
        // Every aligned word, the partial tail word included.
        for start in (0..len).step_by(8) {
            let end = (start + 8).min(len);
            let original = bytes[start..end].to_vec();
            let substitutes: [Vec<u8>; 4] = [
                vec![0x00; end - start],
                vec![0xFF; end - start],
                original.iter().map(|b| !b).collect(),
                random_bytes(start as u64 ^ 0xABCD, end - start),
            ];
            for substitute in substitutes {
                if substitute == original {
                    continue;
                }
                let mut mutated = bytes.clone();
                mutated[start..end].copy_from_slice(&substitute);
                assert_ne!(
                    checksum(&mutated),
                    clean,
                    "length {len}, word at {start} := {substitute:02x?}"
                );
            }
        }
    }
}

#[test]
fn truncation_and_extension_at_every_boundary_change_the_checksum() {
    // Every prefix of one buffer (so every truncation to, and every extension from, every
    // word and lane-block boundary — and every length in between) has its own checksum.
    let bytes = random_bytes(7, 4096 + 5);
    let mut seen = HashSet::new();
    for len in 0..=bytes.len() {
        assert!(
            seen.insert(checksum(&bytes[..len])),
            "prefix of {len} bytes collides with a shorter prefix"
        );
    }
    // Zero-filled holes and zero extension, the shape a dropped write-back leaves: runs of
    // zeros of different lengths never collide with each other, and appending zeros to real
    // data never preserves its checksum.
    let zeros = vec![0u8; 1024];
    let mut seen = HashSet::new();
    for len in 0..=zeros.len() {
        assert!(seen.insert(checksum(&zeros[..len])), "{len} zero bytes");
    }
    for boundary in (0..=bytes.len()).step_by(8) {
        let clean = checksum(&bytes[..boundary]);
        for extra in [1usize, 7, 8, 24, 32, 64] {
            let mut grown = bytes[..boundary].to_vec();
            grown.resize(boundary + extra, 0);
            assert_ne!(checksum(&grown), clean, "{boundary} bytes + {extra} zeros");
        }
    }
}

#[test]
fn swapping_two_words_changes_the_checksum() {
    // Lanes and positions are not interchangeable: reordered write-back is detected.
    let bytes = random_bytes(99, 256);
    let clean = checksum(&bytes);
    for a in (0..256).step_by(8) {
        for b in (a + 8..256).step_by(8) {
            let mut mutated = bytes.clone();
            mutated.copy_within(b..b + 8, a);
            mutated[b..b + 8].copy_from_slice(&bytes[a..a + 8]);
            assert_ne!(checksum(&mutated), clean, "words at {a} and {b} swapped");
        }
    }
}

#[test]
fn golden_vectors_pin_the_version_2_function() {
    // If one of these moves, the blob format changed: bump every `BlobSpec` version. The
    // values come from an independent transcription of the construction in the `wire`
    // module docs (words round-robin onto four lanes, fold, finaliser), not from this code.
    let ramp: Vec<u8> = (0..=255u8).collect();
    let golden: [(&[u8], u64); 6] = [
        (b"", 0x84e8_b61b_da67_3824),
        (b"a", 0xfb2f_fd67_6a28_25ce),
        (b"FABKEY\0\0", 0x3030_061e_a6ad_e7bf),
        (&ramp[..31], 0x0303_c9b5_8bae_eb1d),
        (&ramp[..32], 0x4a02_edbe_7919_5619),
        (&ramp, 0x6a54_4469_2e71_6dd4),
    ];
    for (input, expected) in golden {
        assert_eq!(
            checksum(input),
            expected,
            "checksum of {} bytes is {:#018x}",
            input.len(),
            checksum(input)
        );
    }
}

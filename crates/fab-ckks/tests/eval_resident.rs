//! Eval-resident pipeline equivalence: a random interleaving of domain-aware operations
//! (multiply, multiply_plain, add, hoisted rotation, rescale) executed on a ciphertext that
//! is kept **evaluation-resident** between steps must decrypt **bitwise identically** to the
//! same sequence executed coefficient-resident, across random `(N, L, dnum)` configurations.
//!
//! This is the correctness gate behind the PR 5 domain-aware pipeline: keeping data in
//! evaluation form (and letting the dual-form key switch, the `P·d` absorption and the
//! eval-resident adds rearrange where the transforms happen) may only move NTTs around,
//! never change a single bit of the result — the canonicalising inverse NTT guarantees it.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{
    Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, GaloisKeys,
    KeyGenerator, Plaintext, RelinearizationKey, SecretKey,
};

struct Fixture {
    ctx: Arc<CkksContext>,
    evaluator: Evaluator,
    decryptor: Decryptor,
    rlk: RelinearizationKey,
    keys: GaloisKeys,
    pt: Plaintext,
    start: Ciphertext,
}

fn fixture(log_n: usize, max_level: usize, dnum: usize, seed: u64) -> Fixture {
    let params = CkksParams {
        log_n,
        scale_bits: 40,
        first_prime_bits: 50,
        max_level,
        dnum,
        secret_hamming_weight: Some((1usize << log_n).min(32)),
        ..CkksParams::testing()
    };
    let ctx = CkksContext::new_arc(params).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let pk = keygen.public_key(&mut rng);
    let rlk = keygen.relinearization_key(&mut rng);
    let keys = keygen
        .galois_keys(&[1, 3], false, &mut rng)
        .expect("galois keys");
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let decryptor = Decryptor::new(ctx.clone(), sk);
    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| ((i as f64 + 1.0) * 0.21).sin())
        .collect();
    let pt = encoder
        .encode_real(&values, scale, ctx.params().max_level)
        .expect("encode");
    let start = encryptor.encrypt(&pt, &mut rng).expect("encrypt");
    Fixture {
        evaluator: Evaluator::new(ctx.clone()),
        ctx,
        decryptor,
        rlk,
        keys,
        pt,
        start,
    }
}

/// Applies one operation of the interleaving. Scale bookkeeping is identical on both sides,
/// so only bitwise polynomial equality matters; level-exhausted multiplies/rescales are
/// skipped deterministically on both sides.
fn step(f: &Fixture, ct: &Ciphertext, op: u8) -> Ciphertext {
    let e = &f.evaluator;
    match op % 5 {
        // multiply (relinearised square) followed by a rescale to keep the scale bounded;
        // skipped once the levels are exhausted.
        0 => {
            if ct.level() == 0 {
                ct.clone()
            } else {
                let sq = e.multiply(ct, ct, &f.rlk).expect("multiply");
                e.rescale(&sq).expect("rescale")
            }
        }
        // multiply_plain (the encoded test vector, prefixed to the current level).
        1 => e.multiply_plain(ct, &f.pt).expect("multiply_plain"),
        // add with itself (scales always match).
        2 => e.add(ct, ct).expect("add"),
        // hoisted rotation batch; fold both outputs so the hoisted step contributes.
        3 => {
            let rotated = e
                .rotate_hoisted_batch(ct, &[1, 3], &f.keys)
                .expect("hoisted batch");
            e.add(&rotated[0], &rotated[1]).expect("add rotations")
        }
        // rescale; skipped at level 0.
        _ => {
            if ct.level() == 0 {
                ct.clone()
            } else {
                e.rescale(ct).expect("rescale")
            }
        }
    }
}

proptest! {
    // Context construction dominates; a handful of cases still sweeps ring sizes, chain
    // lengths and digit shapes.
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn prop_eval_resident_interleaving_is_bitwise_identical(
        log_n in 3usize..9,
        max_level in 1usize..5,
        dnum_seed in 1usize..5,
        seed in any::<u64>(),
        ops in proptest::collection::vec(0u8..5, 7),
        len in 1usize..8,
    ) {
        let ops = &ops[..len.min(ops.len())];
        let dnum = 1 + dnum_seed % (max_level + 1);
        let f = fixture(log_n, max_level, dnum, seed);
        let e = &f.evaluator;

        // Coefficient-resident reference: every op input/output in coefficient form.
        let mut reference = f.start.clone();
        // Eval-resident pipeline: promoted after every step, so each op sees an
        // evaluation-form input (multiply skips operand forwards, multiply_plain/add are
        // transform-free, rotations and rescales demote internally at their boundaries).
        let mut resident = e.to_evaluation_form(&f.start).expect("promote");

        for &op in ops {
            reference = step(&f, &reference, op);
            prop_assert!(reference.c0().is_coefficient(),
                "reference sequence must stay coefficient-resident");
            resident = step(&f, &resident, op);
            resident = e.to_evaluation_form(&resident).expect("re-promote");
        }

        // The eval-resident result, demoted once at the end, matches the reference bitwise —
        // ciphertext parts and decryption alike.
        let settled = e.to_coefficient_form(&resident).expect("demote");
        prop_assert_eq!(settled.c0(), reference.c0(), "c0 diverged");
        prop_assert_eq!(settled.c1(), reference.c1(), "c1 diverged");
        prop_assert_eq!(settled.level(), reference.level());
        prop_assert!((settled.scale() / reference.scale() - 1.0).abs() < 1e-12);
        let dec_ref = f.decryptor.decrypt(&reference).expect("decrypt reference");
        // Decryption is itself domain-aware: the still-eval-resident ciphertext decrypts to
        // the identical plaintext without an explicit demotion.
        let dec_res = f.decryptor.decrypt(&resident).expect("decrypt resident");
        prop_assert_eq!(dec_ref.poly(), dec_res.poly(), "decryption diverged");
        let _ = f.ctx.degree();
    }
}

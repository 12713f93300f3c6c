//! Pins the u128 lazy key-switch pipeline (`Evaluator::key_switch`) — through **both** its
//! coefficient and its dual-form (evaluation-operand) entries — and the multiplication built
//! on it **bitwise** against from-the-definition oracles (`support/key_switch.rs`: schoolbook
//! negacyclic products, textbook per-digit key switch) across random `(N, L, dnum)`
//! configurations, and pins the digit-parallel fan-out's determinism across `FAB_THREADS`
//! sweeps.
//!
//! These are the correctness gates behind every key-switch perf claim: the lazy pipeline may
//! only be *faster*, never different.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{Ciphertext, CkksContext, CkksParams, Evaluator, KeyGenerator, SecretKey};

#[path = "support/key_switch.rs"]
mod oracle;
use oracle::{oracle_key_switch, oracle_multiply};

/// Builds a context + relinearisation key for one small configuration.
fn setup(
    log_n: usize,
    max_level: usize,
    dnum: usize,
    seed: u64,
) -> (
    Arc<CkksContext>,
    Evaluator,
    fab_ckks::RelinearizationKey,
    ChaCha20Rng,
) {
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
    let keygen = KeyGenerator::new(ctx.clone(), sk);
    let rlk = keygen.relinearization_key(&mut rng);
    let evaluator = Evaluator::new(ctx.clone());
    (ctx, evaluator, rlk, rng)
}

proptest! {
    // The oracle's schoolbook products are O(N²) per row, so the ring stays small (the
    // pipeline's control flow does not depend on N); the (L, dnum) ranges still sweep digit
    // shapes from 1 to L+1 limbs.
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn prop_lazy_key_switch_matches_eager_reference_bitwise(
        log_n in 3usize..9,
        max_level in 1usize..7,
        dnum_seed in 1usize..7,
        seed in any::<u64>(),
    ) {
        let dnum = 1 + dnum_seed % (max_level + 1);
        let (ctx, evaluator, rlk, mut rng) = setup(log_n, max_level, dnum, seed);
        // Exercise the top level (all digits live) and a lower level (short last digit).
        for level in [max_level, max_level / 2] {
            let basis = ctx.basis_at_level(level).expect("basis");
            let d = fab_ckks::sampling::sample_uniform(&mut rng, &basis);
            let lazy = evaluator.key_switch(&d, &rlk.key, level).expect("lazy");
            let eager = oracle_key_switch(&ctx, &d, &rlk.key, level);
            prop_assert_eq!(
                &lazy.0, &eager.0,
                "k0 diverged at log_n={} level={} dnum={}", log_n, level, dnum
            );
            prop_assert_eq!(
                &lazy.1, &eager.1,
                "k1 diverged at log_n={} level={} dnum={}", log_n, level, dnum
            );
            // The dual-form entry — the same operand handed over in evaluation form — must
            // also be bitwise identical: the digits' own raised rows are reused in the lazy
            // [0, q) domain instead of the [0, 4q) forward output, and the canonicalising
            // accumulator inverse makes the representative difference invisible.
            let mut d_eval = d.clone();
            d_eval.to_evaluation(&basis);
            let dual = evaluator
                .key_switch(&d_eval, &rlk.key, level)
                .expect("dual-form");
            prop_assert_eq!(
                &dual.0, &eager.0,
                "dual-form k0 diverged at log_n={} level={} dnum={}", log_n, level, dnum
            );
            prop_assert_eq!(
                &dual.1, &eager.1,
                "dual-form k1 diverged at log_n={} level={} dnum={}", log_n, level, dnum
            );
        }
    }
}

#[test]
fn multiply_matches_the_schoolbook_oracle_bitwise() {
    // `multiply` (tensor in evaluation form, dual-form key switch of d2, P·d0 / P·d1
    // absorbed before the accumulator inverse) against tensor-by-schoolbook → textbook key
    // switch → add, on uniformly random ciphertext parts: one digit, even digits, and a
    // short last digit below the top level.
    for (max_level, dnum, level) in [(3usize, 1usize, 3usize), (4, 2, 4), (5, 3, 2)] {
        let (ctx, evaluator, rlk, mut rng) = setup(6, max_level, dnum, 0x0A11 + dnum as u64);
        let basis = ctx.basis_at_level(level).expect("basis");
        let scale = ctx.params().default_scale();
        let mut random_ct = || {
            let c0 = fab_ckks::sampling::sample_uniform(&mut rng, &basis);
            let c1 = fab_ckks::sampling::sample_uniform(&mut rng, &basis);
            Ciphertext::from_parts(c0, c1, scale, level)
        };
        let (a, b) = (random_ct(), random_ct());
        let product = evaluator.multiply(&a, &b, &rlk).expect("multiply");
        let (c0, c1) = oracle_multiply(&ctx, &a, &b, &rlk);
        assert_eq!(
            product.c0(),
            &c0,
            "c0 diverged at L={max_level} dnum={dnum}"
        );
        assert_eq!(
            product.c1(),
            &c1,
            "c1 diverged at L={max_level} dnum={dnum}"
        );
    }
}

#[test]
fn dual_form_entry_accepts_evaluation_operands_and_malformed_shapes_still_fail() {
    // The domain tag selects the seam: an evaluation-form operand enters the dual-form
    // pipeline (and must match the coefficient entry bitwise — its ℓ+1 rows never
    // round-trip through coefficient form), and shape errors keep failing loudly in both
    // forms.
    let (ctx, evaluator, rlk, mut rng) = setup(8, 4, 2, 7);
    let level = ctx.params().max_level;
    let basis = ctx.basis_at_level(level).expect("basis");
    let mut d = fab_ckks::sampling::sample_uniform(&mut rng, &basis);
    let from_coeff = evaluator.key_switch(&d, &rlk.key, level).expect("coeff");

    // Evaluation representation: dual-form entry, bitwise equal.
    d.to_evaluation(&basis);
    let from_eval = evaluator.key_switch(&d, &rlk.key, level).expect("dual");
    assert_eq!(from_eval, from_coeff, "dual-form seam diverged");
    d.to_coefficient(&basis);

    // Too few limbs for the requested level is rejected in both forms.
    let short = d.prefix(level).expect("prefix");
    assert!(evaluator.key_switch(&short, &rlk.key, level).is_err());
    let mut short_eval = short.clone();
    short_eval.to_evaluation(&basis);
    assert!(evaluator.key_switch(&short_eval, &rlk.key, level).is_err());

    // The well-formed operand still succeeds.
    assert!(evaluator.key_switch(&d, &rlk.key, level).is_ok());
}

#[test]
fn digit_parallel_key_switch_is_thread_deterministic() {
    // The digit-parallel ModUp fan-out and the limb-major KSKIP jobs must make the worker
    // count invisible: bitwise-identical outputs for FAB_THREADS ∈ {1, 2, 4}.
    let (ctx, evaluator, rlk, mut rng) = setup(10, 5, 2, 0xFAB);
    let level = ctx.params().max_level;
    let basis = ctx.basis_at_level(level).expect("basis");
    let d = fab_ckks::sampling::sample_uniform(&mut rng, &basis);

    fab_par::set_threads(1);
    let serial = evaluator.key_switch(&d, &rlk.key, level).expect("serial");
    assert_eq!(
        serial,
        oracle_key_switch(&ctx, &d, &rlk.key, level),
        "lazy pipeline diverged from the textbook oracle"
    );
    for workers in [2usize, 4] {
        fab_par::set_threads(workers);
        let parallel = evaluator.key_switch(&d, &rlk.key, level).expect("parallel");
        assert_eq!(parallel, serial, "output changed at {workers} workers");
    }
    fab_par::set_threads(1);
}

#[test]
fn hoisted_batch_is_thread_deterministic() {
    // The shared-forward-sweep hoisted batch must also be FAB_THREADS-invariant. (Equivalence
    // of the batch against per-op rotations is pinned separately by the evaluator unit test
    // `hoisted_batch_shares_decomposition_and_matches_per_op_rotations`.)
    use fab_ckks::{Encoder, Encryptor};
    let (ctx, evaluator, _rlk, mut rng) = setup(10, 5, 2, 0xBA7C);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk);
    let pk = keygen.public_key(&mut rng);
    let keys = keygen
        .galois_keys(&[1, 2, 5], false, &mut rng)
        .expect("galois keys");
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| (i as f64 * 0.1).sin())
        .collect();
    let scale = ctx.params().default_scale();
    let ct = encryptor
        .encrypt(
            &encoder.encode_real(&values, scale, 3).expect("encode"),
            &mut rng,
        )
        .expect("encrypt");

    fab_par::set_threads(1);
    let serial = evaluator
        .rotate_hoisted_batch(&ct, &[1, 2, 5], &keys)
        .expect("batch");
    for workers in [2usize, 4] {
        fab_par::set_threads(workers);
        let parallel = evaluator
            .rotate_hoisted_batch(&ct, &[1, 2, 5], &keys)
            .expect("batch");
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.c0(), p.c0(), "c0 changed at {workers} workers");
            assert_eq!(s.c1(), p.c1(), "c1 changed at {workers} workers");
        }
    }
    fab_par::set_threads(1);
}

//! Bytes-moved regression: the DRAM-order traffic the substrate *actually records* for the
//! hot evaluator operations must equal the closed-form `_bytes` formulas of
//! `fab_ckks::accounting` — the same verified-counters discipline `ntt_accounting.rs`
//! applies to transform counts, extended to the byte meter that feeds the PR 7 software
//! roofline. A future change that silently adds (or loses) memory traffic in `key_switch`,
//! `multiply`, `multiply_rescale`, a hoisted rotation batch, or a bootstrap BSGS stage
//! fails here, not in a benchmark.
//!
//! The meter charges on the calling thread before any `fab_par` fan-out, so every tally —
//! and therefore every assertion below — is invariant under `FAB_THREADS`; the last test
//! pins that explicitly at 1/2/4 workers.

use fab::ckks::accounting;
use fab::prelude::*;
use fab::rns::metering;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

#[path = "support/bsgs_stages.rs"]
mod bsgs_stages;
use bsgs_stages::bsgs_stages;

fn shape(ctx: &CkksContext, level: usize) -> (usize, usize, usize) {
    (
        level + 1,
        ctx.params().special_limbs(),
        ctx.params().alpha(),
    )
}

#[test]
fn key_switch_bytes_match_the_closed_form_in_both_entry_domains() {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(4041);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk);
    let rlk = keygen.relinearization_key(&mut rng);
    let evaluator = Evaluator::new(ctx.clone());
    let level = 3;
    let (limbs, special, alpha) = shape(&ctx, level);
    let degree = ctx.degree();

    let basis = ctx.basis_at_level(level).unwrap();
    let d = fab::ckks::sampling::sample_uniform(&mut rng, &basis);

    // Coefficient entry: every digit row lifts + transforms.
    let before = metering::byte_counts();
    evaluator.key_switch(&d, &rlk.key, level).unwrap();
    let observed = metering::byte_counts().since(&before);
    assert_eq!(
        observed,
        accounting::key_switch_bytes(degree, limbs, special, alpha),
        "key_switch recorded bytes drifted from the closed-form formula"
    );

    // Dual-form entry: the operand rows are reused verbatim; one batched inverse feeds the
    // coefficient-domain conversions instead of the lift forwards.
    let mut d_eval = d.clone();
    d_eval.to_evaluation(&basis);
    let before = metering::byte_counts();
    evaluator.key_switch(&d_eval, &rlk.key, level).unwrap();
    let observed_dual = metering::byte_counts().since(&before);
    assert_eq!(
        observed_dual,
        accounting::key_switch_dual_bytes(degree, limbs, special, alpha),
        "dual-form key_switch recorded bytes drifted"
    );
}

#[test]
fn multiply_and_fused_rescale_bytes_match_their_formulas() {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(4242);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk);
    let pk = keygen.public_key(&mut rng);
    let rlk = keygen.relinearization_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let evaluator = Evaluator::new(ctx.clone());
    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..16).map(|i| (i as f64 * 0.2).cos()).collect();
    let level = 3;
    let ct_a = encryptor
        .encrypt(
            &encoder.encode_real(&values, scale, level).unwrap(),
            &mut rng,
        )
        .unwrap();
    let ct_b = encryptor
        .encrypt(
            &encoder.encode_real(&values, scale, level).unwrap(),
            &mut rng,
        )
        .unwrap();
    let (limbs, special, alpha) = shape(&ctx, level);
    let degree = ctx.degree();

    let before = metering::byte_counts();
    evaluator.multiply(&ct_a, &ct_b, &rlk).unwrap();
    let observed = metering::byte_counts().since(&before);
    assert_eq!(
        observed,
        accounting::multiply_bytes(degree, limbs, special, alpha),
        "multiply recorded bytes drifted"
    );

    // The fused ModDown+rescale performs the same transforms but different conversion
    // traffic (the top prime is treated as a special limb): its own formula, not
    // multiply's.
    let before = metering::byte_counts();
    evaluator.multiply_rescale(&ct_a, &ct_b, &rlk).unwrap();
    let observed = metering::byte_counts().since(&before);
    assert_eq!(
        observed,
        accounting::multiply_rescale_bytes(degree, limbs, special, alpha),
        "multiply_rescale recorded bytes drifted"
    );
}

#[test]
fn constant_op_and_leaf_bytes_match_their_formulas() {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(4343);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = KeyGenerator::new(ctx.clone(), sk).public_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let evaluator = Evaluator::new(ctx.clone());
    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..16).map(|i| (i as f64 * 0.2).cos()).collect();
    let fresh = Encryptor::new(ctx.clone(), pk)
        .encrypt(&encoder.encode_real(&values, scale, 5).unwrap(), &mut rng)
        .unwrap();
    let level = 3;
    let limbs = level + 1;
    let degree = ctx.degree();
    let prime = ctx.rescale_prime(level) as f64;
    let coeff = evaluator.mod_drop_to_level(&fresh, level).unwrap();
    let eval = evaluator.to_evaluation_form(&coeff).unwrap();
    let fresh_eval = evaluator.to_evaluation_form(&fresh).unwrap();

    for (ct, term) in [(&coeff, &fresh), (&eval, &fresh_eval)] {
        // The seed of a leaf: one scalar pass per part, whatever the domain.
        let before = metering::byte_counts();
        let mut acc = evaluator
            .multiply_const(ct, Complex64::new(0.5, 0.0), prime)
            .unwrap();
        assert_eq!(
            metering::byte_counts().since(&before),
            accounting::multiply_const_bytes(degree, limbs),
            "multiply_const recorded bytes drifted"
        );

        // Fourteen more terms, read in place from two levels up: a 15-term leaf moves the
        // seed plus fourteen accumulate passes before its rescale, and not a byte more
        // (in particular no transform traffic).
        let before = metering::byte_counts();
        for j in 2..=15 {
            evaluator
                .accumulate_const(&mut acc, term, 1.0 / j as f64, prime)
                .unwrap();
        }
        assert_eq!(
            metering::byte_counts().since(&before),
            accounting::accumulate_const_bytes(degree, limbs).times(14),
            "accumulate_const recorded bytes drifted"
        );
    }

    // add_scalar: one word per limb in coefficient form (below the meter's row-pass
    // granularity), one unary pass over c0 in evaluation form.
    let before = metering::byte_counts();
    evaluator
        .add_scalar(&coeff, Complex64::new(1.5, 0.0))
        .unwrap();
    assert_eq!(metering::byte_counts().since(&before).total(), 0);
    let before = metering::byte_counts();
    evaluator
        .add_scalar(&eval, Complex64::new(1.5, 0.0))
        .unwrap();
    assert_eq!(
        metering::byte_counts().since(&before),
        metering::bytes::pointwise_unary(degree, limbs)
    );
}

#[test]
fn rotation_and_hoisted_batch_bytes_match_their_formulas() {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(1213);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk);
    let pk = keygen.public_key(&mut rng);
    let keys = keygen.galois_keys(&[1, 2, 5], false, &mut rng).unwrap();
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let evaluator = Evaluator::new(ctx.clone());
    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
    let level = 3;
    let ct = encryptor
        .encrypt(
            &encoder.encode_real(&values, scale, level).unwrap(),
            &mut rng,
        )
        .unwrap();
    let (limbs, special, alpha) = shape(&ctx, level);
    let degree = ctx.degree();

    // Three key-switched rotations + one free step share one digit-raise sweep.
    let before = metering::byte_counts();
    evaluator
        .rotate_hoisted_batch(&ct, &[1, 0, 2, 5], &keys)
        .unwrap();
    let observed = metering::byte_counts().since(&before);
    assert_eq!(
        observed,
        accounting::hoisted_rotation_batch_bytes(degree, limbs, special, alpha, 3),
        "hoisted batch recorded bytes drifted"
    );

    // A batch of free steps is a pure copy: zero metered traffic.
    let before = metering::byte_counts();
    evaluator.rotate_hoisted_batch(&ct, &[0], &keys).unwrap();
    assert_eq!(metering::byte_counts().since(&before).total(), 0);

    // A single key-switched rotation: two automorphism gathers + key switch + combine.
    let before = metering::byte_counts();
    evaluator.rotate(&ct, 1, &keys).unwrap();
    assert_eq!(
        metering::byte_counts().since(&before),
        accounting::rotation_bytes(degree, limbs, special, alpha),
        "rotation recorded bytes drifted"
    );
}

#[test]
fn bootstrap_coeff_to_slot_stage_bytes_match_the_bsgs_formula() {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(78);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk);
    let pk = keygen.public_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let evaluator = Evaluator::new(ctx.clone());

    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| (i as f64 * 0.05).sin())
        .collect();
    let level = 3;
    let ct = encryptor
        .encrypt(
            &encoder.encode_real(&values, scale, level).unwrap(),
            &mut rng,
        )
        .unwrap();
    let (limbs, special, alpha) = shape(&ctx, level);
    let degree = ctx.degree();

    for stage in bsgs_stages(&ctx) {
        let plan = stage.bsgs_plan();
        let keys = keygen
            .galois_keys(&stage.required_rotations(), false, &mut rng)
            .unwrap();
        let diagonals = stage.diagonal_count();
        let formula = |warm| {
            accounting::bsgs_stage_eval_bytes(degree, limbs, special, alpha, plan, diagonals, warm)
        };

        // Warm-up pays the one-time diagonal cache fill on top of the steady-state traffic.
        let before = metering::byte_counts();
        stage
            .apply_with(&ExecBackend::new(&evaluator, &keys), &ct)
            .unwrap();
        let warm = metering::byte_counts().since(&before);
        assert_eq!(
            warm,
            formula(true),
            "warm BSGS stage recorded bytes drifted (babies={}, giants={}, diagonals={})",
            plan.baby_rotation_count(),
            plan.giant_rotation_count(),
            diagonals
        );

        let before = metering::byte_counts();
        stage
            .apply_with(&ExecBackend::new(&evaluator, &keys), &ct)
            .unwrap();
        let steady = metering::byte_counts().since(&before);
        assert_eq!(
            steady,
            formula(false),
            "steady BSGS stage recorded bytes drifted (giants={})",
            plan.giant_rotation_count()
        );
        // The warm/steady gap is exactly the plaintext cache fill, on the read and write side.
        assert_eq!(warm.since(&steady), formula(true).since(&formula(false)));
    }
}

#[test]
fn recorded_bytes_and_results_are_invariant_under_thread_count() {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(999);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk);
    let rlk = keygen.relinearization_key(&mut rng);
    let evaluator = Evaluator::new(ctx.clone());
    let level = 3;
    let basis = ctx.basis_at_level(level).unwrap();
    let d = fab::ckks::sampling::sample_uniform(&mut rng, &basis);

    let term = Ciphertext::from_parts(d.clone(), d.clone(), 1.0, level);

    let mut outputs = Vec::new();
    let mut tallies = Vec::new();
    let previous = fab_par::threads();
    for workers in [1, 2, 4] {
        fab_par::set_threads(workers);
        let before = metering::byte_counts();
        let out = evaluator.key_switch(&d, &rlk.key, level).unwrap();
        let mut acc = term.clone();
        evaluator
            .accumulate_const(&mut acc, &term, -3.0, 1.0)
            .unwrap();
        tallies.push(metering::byte_counts().since(&before));
        outputs.push((out, acc));
    }
    fab_par::set_threads(previous);
    assert!(
        tallies.windows(2).all(|w| w[0] == w[1]),
        "metered bytes varied with FAB_THREADS: {tallies:?}"
    );
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "key_switch / accumulate_const output varied with FAB_THREADS"
    );
}

#[test]
fn paper_scale_closed_forms_pin_the_readme_table() {
    // FAB's full-depth shape (Table 2): N = 2^16, 24 limbs of Q, 8 special limbs, alpha 8.
    // The README's bytes/op table quotes these numbers (in MiB); a change here means the
    // closed forms moved and the README must move with them.
    let (degree, limbs, special, alpha) = (1usize << 16, 24, 8, 8);
    let mib = |c: metering::ByteCounts| (c.total() as f64 / (1024.0 * 1024.0)).round() as u64;
    assert_eq!(
        mib(accounting::key_switch_bytes(degree, limbs, special, alpha)),
        3500
    );
    assert_eq!(
        mib(accounting::multiply_bytes(degree, limbs, special, alpha)),
        5384
    );
    assert_eq!(
        mib(accounting::multiply_rescale_bytes(
            degree, limbs, special, alpha
        )),
        5395
    );
    assert_eq!(
        mib(accounting::rotation_bytes(degree, limbs, special, alpha)),
        3608
    );
}

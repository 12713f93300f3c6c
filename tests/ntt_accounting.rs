//! NTT-count regression: the transforms the substrate *actually performs* for the hot
//! evaluator operations must equal the closed-form minimum formulas of
//! `fab_ckks::accounting` — verified operation counts instead of trusted timings (the
//! hardware-counter discipline). A future change that silently adds transforms to
//! `multiply`, the hoisted rotation batch, or a bootstrap CoeffToSlot stage fails here.
//!
//! The PR 5 rows pin the domain-aware pipeline:
//!
//! * the dual-form key switch (evaluation operand) performs exactly `ℓ+1` fewer forwards
//!   than the coefficient entry;
//! * `multiply` and the fused `multiply_rescale` perform exactly `accounting::multiply`;
//! * `multiply_plain` is pinned in both domains (the coefficient path had no assertion
//!   before);
//! * the eval-resident BSGS stage matches its warm/steady formulas, and after warm-up
//!   performs **zero plaintext forward transforms**.
//!
//! What the counted paths *compute* is pinned elsewhere, against from-the-definition
//! oracles: `crates/fab-ckks/tests/key_switch_lazy.rs` (key switch and `multiply`, bitwise)
//! and the `linear_transform.rs` unit tests (eval-resident == generic BSGS, bitwise).

use fab::ckks::accounting::{self, NttMeter};
use fab::ckks::linear_transform::coeff_to_slot_stages;
use fab::prelude::*;
use fab::rns::metering;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

fn shape(ctx: &CkksContext, level: usize) -> (usize, usize, usize) {
    (
        level + 1,
        ctx.params().special_limbs(),
        ctx.params().alpha(),
    )
}

#[test]
fn multiply_and_key_switch_match_the_closed_form_minimum() {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(4040);
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

    // Raw key switch, coefficient entry.
    let basis = ctx.basis_at_level(level).unwrap();
    let d = fab::ckks::sampling::sample_uniform(&mut rng, &basis);
    let before = metering::counts();
    let from_coeff = evaluator.key_switch(&d, &rlk.key, level).unwrap();
    let observed = metering::counts().since(&before);
    assert_eq!(
        observed,
        accounting::key_switch(limbs, special, alpha),
        "key_switch transform count drifted from the closed-form minimum"
    );

    // Dual-form entry: the same operand in evaluation form skips the lift forwards of its
    // own rows (exactly `limbs` fewer forwards) and pays `limbs` conversion inverses —
    // bitwise-identical output.
    let mut d_eval = d.clone();
    d_eval.to_evaluation(&basis);
    let before = metering::counts();
    let from_eval = evaluator.key_switch(&d_eval, &rlk.key, level).unwrap();
    let observed_dual = metering::counts().since(&before);
    assert_eq!(
        observed_dual,
        accounting::key_switch_dual(limbs, special, alpha),
        "dual-form key_switch transform count drifted"
    );
    assert_eq!(
        observed.forward - observed_dual.forward,
        limbs as u64,
        "dual-form seam must save exactly ℓ+1 forwards"
    );
    assert_eq!(
        from_eval, from_coeff,
        "dual-form key switch diverged bitwise"
    );

    // Ciphertext multiplication (tensor + relinearisation) through the dual-form pipeline.
    let before = metering::counts();
    evaluator.multiply(&ct_a, &ct_b, &rlk).unwrap();
    let observed = metering::counts().since(&before);
    assert_eq!(
        observed,
        accounting::multiply(limbs, special, alpha),
        "multiply transform count drifted"
    );

    // The fused multiply_rescale performs exactly the same transforms (the fusion saves
    // conversion work, never transforms) — and the NttMeter surfaces the count as an
    // HeOp::Ntt in a recorded trace.
    let sink = fab::trace::RecordingSink::new("fused");
    let meter = NttMeter::start();
    evaluator.multiply_rescale(&ct_a, &ct_b, &rlk).unwrap();
    let observed = meter.finish_into(&sink);
    assert_eq!(observed, accounting::multiply(limbs, special, alpha));
    assert_eq!(
        sink.snapshot().counts().ntt,
        accounting::multiply(limbs, special, alpha).total()
    );
}

#[test]
fn multiply_plain_matches_its_formula_in_both_domains() {
    // Coefficient path: pt + both parts forward, both parts back. Evaluation path: the
    // domain tag skips the ciphertext round-trip entirely — only the plaintext transforms —
    // and converting the eval product back equals the coefficient product bitwise.
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(505);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk);
    let pk = keygen.public_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let evaluator = Evaluator::new(ctx.clone());
    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4).sin()).collect();
    let level = 3;
    let limbs = level + 1;
    let ct = encryptor
        .encrypt(
            &encoder.encode_real(&values, scale, level).unwrap(),
            &mut rng,
        )
        .unwrap();
    let pt = encoder.encode_real(&values, scale, level).unwrap();

    let before = metering::counts();
    let coeff_product = evaluator.multiply_plain(&ct, &pt).unwrap();
    let observed = metering::counts().since(&before);
    assert_eq!(
        observed,
        accounting::multiply_plain(limbs),
        "coefficient multiply_plain transform count drifted"
    );

    let ct_eval = evaluator.to_evaluation_form(&ct).unwrap();
    let before = metering::counts();
    let eval_product = evaluator.multiply_plain(&ct_eval, &pt).unwrap();
    let observed = metering::counts().since(&before);
    assert_eq!(
        observed,
        accounting::multiply_plain_eval(limbs),
        "eval-resident multiply_plain transform count drifted"
    );
    let back = evaluator.to_coefficient_form(&eval_product).unwrap();
    assert_eq!(back.c0(), coeff_product.c0());
    assert_eq!(back.c1(), coeff_product.c1());
}

/// Runs `run` and returns its result with the transforms it performed on this thread.
fn metered<T>(run: impl FnOnce() -> T) -> (T, accounting::TransformCounts) {
    let before = metering::counts();
    let out = run();
    (out, metering::counts().since(&before))
}

#[test]
fn real_constant_ops_and_the_chebyshev_leaf_are_transform_free() {
    // A real constant is a per-limb scalar: multiply_const, accumulate_const and add_scalar
    // perform no transform in either domain, so multiply_scalar and match_scale pay only
    // what their rescale pays (nothing on coefficient input, the 2·(ℓ+1) inverses of the
    // coefficient boundary on evaluation input), and a 15-term leaf reaches its rescale
    // without one.
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(606);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = KeyGenerator::new(ctx.clone(), sk).public_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let evaluator = Evaluator::new(ctx.clone());
    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4).sin()).collect();
    let fresh = Encryptor::new(ctx.clone(), pk)
        .encrypt(&encoder.encode_real(&values, scale, 5).unwrap(), &mut rng)
        .unwrap();
    let level = 3;
    let limbs = level as u64 + 1;
    let prime = ctx.rescale_prime(level) as f64;
    let none = accounting::TransformCounts::default();

    let no_keys = GaloisKeys::default();
    let backend = ExecBackend::new(&evaluator, &no_keys);
    let coeff = evaluator.mod_drop_to_level(&fresh, level).unwrap();
    let eval = evaluator.to_evaluation_form(&coeff).unwrap();
    let fresh_eval = evaluator.to_evaluation_form(&fresh).unwrap();
    for (ct, term, rescale_cost) in [
        (&coeff, &fresh, none),
        (
            &eval,
            &fresh_eval,
            accounting::TransformCounts {
                forward: 0,
                inverse: 2 * limbs,
            },
        ),
    ] {
        let c = Complex64::new(-0.37, 0.0);
        assert_eq!(
            metered(|| evaluator.multiply_const(ct, c, prime).unwrap()).1,
            none
        );
        assert_eq!(metered(|| evaluator.add_scalar(ct, c).unwrap()).1, none);
        assert_eq!(
            metered(|| backend.multiply_scalar(ct, c).unwrap()).1,
            rescale_cost
        );
        assert_eq!(
            metered(|| backend.match_scale(ct, scale * 0.75).unwrap()).1,
            rescale_cost
        );

        // The leaf: a seed and fourteen accumulations off terms held two levels higher.
        let (acc, leaf) = metered(|| {
            let mut sum = evaluator
                .multiply_const(ct, Complex64::new(0.5, 0.0), prime)
                .unwrap();
            for j in 2..=15 {
                evaluator
                    .accumulate_const(&mut sum, term, 1.0 / j as f64, prime)
                    .unwrap();
            }
            sum
        });
        assert_eq!(leaf, none, "the Chebyshev leaf performed transforms");
        assert_eq!(metered(|| evaluator.rescale(&acc).unwrap()).1, rescale_cost);
    }
}

#[test]
fn hoisted_rotation_batch_shares_one_forward_sweep() {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(1212);
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

    // Three key-switched rotations + one free step: one shared β·R forward sweep, 2R
    // inverses per rotation — the per-rotation forward re-transforms are gone.
    let before = metering::counts();
    evaluator
        .rotate_hoisted_batch(&ct, &[1, 0, 2, 5], &keys)
        .unwrap();
    let observed = metering::counts().since(&before);
    assert_eq!(
        observed,
        accounting::hoisted_rotation_batch(limbs, special, alpha, 3),
        "hoisted batch transform count drifted"
    );

    // A batch of free steps performs no transforms.
    let before = metering::counts();
    evaluator.rotate_hoisted_batch(&ct, &[0], &keys).unwrap();
    assert_eq!(metering::counts().since(&before).total(), 0);

    // A single key-switched rotation costs exactly one key switch.
    let before = metering::counts();
    evaluator.rotate(&ct, 1, &keys).unwrap();
    assert_eq!(
        metering::counts().since(&before),
        accounting::rotation(limbs, special, alpha)
    );
}

#[test]
fn bootstrap_coeff_to_slot_stage_matches_its_bsgs_formula() {
    // One CoeffToSlot stage of the bootstrap pipeline (grouped inverse-FFT factor with its
    // rotation-minimising BSGS plan), applied homomorphically through the eval-resident
    // path: the first application pays the one-time NTT-diagonal cache fill (`warm`) and
    // every later application performs zero plaintext forward transforms.
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(77);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk);
    let pk = keygen.public_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let evaluator = Evaluator::new(ctx.clone());

    let stage = coeff_to_slot_stages(ctx.fft(), ctx.params().fft_iter)
        .into_iter()
        .next()
        .expect("at least one CoeffToSlot stage");
    let plan = stage.bsgs_plan();
    let keys = keygen
        .galois_keys(&stage.required_rotations(), false, &mut rng)
        .unwrap();

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
    let diagonals = stage.diagonal_count();

    // Warm-up application: eval-resident counts plus the one-time cache fill.
    let before = metering::counts();
    let warm_out = stage
        .apply_with(&ExecBackend::new(&evaluator, &keys), &ct)
        .unwrap();
    let warm = metering::counts().since(&before);
    assert_eq!(
        warm,
        accounting::bsgs_stage_eval(limbs, special, alpha, plan, diagonals, true),
        "warm CoeffToSlot stage transform count drifted (babies={}, giants={}, diagonals={})",
        plan.baby_rotation_count(),
        plan.giant_rotation_count(),
        diagonals
    );

    // Steady-state application: zero plaintext forwards — the warm/steady difference is
    // exactly the diagonal cache fill, and nothing else.
    let before = metering::counts();
    let steady_out = stage
        .apply_with(&ExecBackend::new(&evaluator, &keys), &ct)
        .unwrap();
    let steady = metering::counts().since(&before);
    assert_eq!(
        steady,
        accounting::bsgs_stage_eval(limbs, special, alpha, plan, diagonals, false),
        "steady CoeffToSlot stage transform count drifted"
    );
    assert_eq!(
        warm.forward - steady.forward,
        (diagonals * limbs) as u64,
        "warm-up must charge exactly the plaintext cache fill"
    );
    assert_eq!(warm.inverse, steady.inverse);
    assert_eq!(warm_out.c0(), steady_out.c0(), "cache changed the result");
}

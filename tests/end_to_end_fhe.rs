//! Cross-crate integration tests: a full encrypted workflow (encode → encrypt → compute →
//! decrypt), a bootstrap-and-continue pipeline, and property-based checks on the homomorphic
//! identities that the FAB datapath relies on.

use fab::ckks::bootstrap::BootstrapParams;
use fab::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Arc;

struct Fixture {
    ctx: Arc<CkksContext>,
    encoder: Encoder,
    encryptor: Encryptor,
    decryptor: Decryptor,
    evaluator: Evaluator,
    rlk: RelinearizationKey,
    gks: GaloisKeys,
    rng: ChaCha20Rng,
}

fn fixture() -> Fixture {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(1234);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let pk = keygen.public_key(&mut rng);
    let rlk = keygen.relinearization_key(&mut rng);
    let gks = keygen.galois_keys(&[1, 2, 4, 8], true, &mut rng).unwrap();
    Fixture {
        encoder: Encoder::new(ctx.clone()),
        encryptor: Encryptor::new(ctx.clone(), pk),
        decryptor: Decryptor::new(ctx.clone(), sk),
        evaluator: Evaluator::new(ctx.clone()),
        ctx,
        rlk,
        gks,
        rng,
    }
}

#[test]
fn polynomial_evaluation_pipeline_end_to_end() {
    // Evaluate p(x, y) = (x·y + x)·rot(x, 1) homomorphically and compare with the clear result.
    let mut f = fixture();
    let scale = f.ctx.params().default_scale();
    let level = f.ctx.params().max_level;
    let n = 64usize;
    let xs: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin()).collect();
    let ys: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.05).cos() * 0.5).collect();
    let ct_x = f
        .encryptor
        .encrypt(
            &f.encoder.encode_real(&xs, scale, level).unwrap(),
            &mut f.rng,
        )
        .unwrap();
    let ct_y = f
        .encryptor
        .encrypt(
            &f.encoder.encode_real(&ys, scale, level).unwrap(),
            &mut f.rng,
        )
        .unwrap();

    let backend = ExecBackend::new(&f.evaluator, &f.gks);
    let xy = f.evaluator.multiply_rescale(&ct_x, &ct_y, &f.rlk).unwrap();
    let (xy_aligned, x_aligned) = backend.align_for_addition(&xy, &ct_x).unwrap();
    let sum = f.evaluator.add(&xy_aligned, &x_aligned).unwrap();
    let rot = f.evaluator.rotate(&ct_x, 1, &f.gks).unwrap();
    let (sum_a, rot_a) = backend.align_for_addition(&sum, &rot).unwrap();
    let level_min = sum_a.level().min(rot_a.level());
    let product = f
        .evaluator
        .multiply_rescale(
            &f.evaluator.mod_drop_to_level(&sum_a, level_min).unwrap(),
            &f.evaluator.mod_drop_to_level(&rot_a, level_min).unwrap(),
            &f.rlk,
        )
        .unwrap();

    let decoded = f
        .encoder
        .decode_real(&f.decryptor.decrypt(&product).unwrap());
    for i in 0..n - 1 {
        let expected = (xs[i] * ys[i] + xs[i]) * xs[i + 1];
        assert!(
            (decoded[i] - expected).abs() < 5e-2,
            "slot {i}: {} vs {expected}",
            decoded[i]
        );
    }
    // The last inspected slot pulls in a padded (zero) slot through the rotation.
    let expected_last = 0.0;
    assert!((decoded[n - 1] - expected_last).abs() < 5e-2);
}

#[test]
fn bootstrap_then_continue_computing() {
    // Exhaust a ciphertext, bootstrap it, then keep multiplying — the core promise of the paper.
    let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(99);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let pk = keygen.public_key(&mut rng);
    let rlk = keygen.relinearization_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let decryptor = Decryptor::new(ctx.clone(), sk);
    let evaluator = Evaluator::new(ctx.clone());
    let bootstrapper = Bootstrapper::new(
        ctx.clone(),
        BootstrapParams {
            eval_mod_degree: 159,
            k_range: 16.0,
            fft_iter: 3,
            sparse_slots: None,
        },
    )
    .unwrap();
    let gks = keygen
        .galois_keys(&bootstrapper.required_rotations(), true, &mut rng)
        .unwrap();

    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| 0.5 * ((i as f64) * 0.03).cos())
        .collect();
    let exhausted = encryptor
        .encrypt(&encoder.encode_real(&values, scale, 0).unwrap(), &mut rng)
        .unwrap();
    assert_eq!(exhausted.level(), 0);

    let refreshed = bootstrapper.bootstrap(&exhausted, &rlk, &gks).unwrap();
    assert!(refreshed.level() >= 2);
    // The three-argument form is `bootstrap_with` on the same keys, bit for bit.
    let provider = fab::ckks::ResidentKeyProvider::new(rlk.clone(), gks.clone());
    let provided = bootstrapper.bootstrap_with(&exhausted, &provider).unwrap();
    assert_eq!(
        (
            provided.c0(),
            provided.c1(),
            provided.level(),
            provided.scale()
        ),
        (
            refreshed.c0(),
            refreshed.c1(),
            refreshed.level(),
            refreshed.scale()
        )
    );

    let squared = evaluator
        .multiply_rescale(&refreshed, &refreshed, &rlk)
        .unwrap();
    let decoded = encoder.decode_real(&decryptor.decrypt(&squared).unwrap());
    for i in 0..32 {
        assert!(
            (decoded[i] - values[i] * values[i]).abs() < 0.1,
            "slot {i}: {} vs {}",
            decoded[i],
            values[i] * values[i]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn prop_homomorphic_linear_combinations(seed in 0u64..1000) {
        let mut f = fixture();
        let scale = f.ctx.params().default_scale();
        let level = 3usize;
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        use rand::Rng;
        let xs: Vec<f64> = (0..32).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let ys: Vec<f64> = (0..32).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let ct_x = f
            .encryptor
            .encrypt(&f.encoder.encode_real(&xs, scale, level).unwrap(), &mut f.rng)
            .unwrap();
        let ct_y = f
            .encryptor
            .encrypt(&f.encoder.encode_real(&ys, scale, level).unwrap(), &mut f.rng)
            .unwrap();
        // 2x - y + 3, evaluated homomorphically.
        let two_x = f.evaluator.add(&ct_x, &ct_x).unwrap();
        let diff = f.evaluator.sub(&two_x, &ct_y).unwrap();
        let shifted = f
            .evaluator
            .add_scalar(&diff, Complex64::new(3.0, 0.0))
            .unwrap();
        let decoded = f
            .encoder
            .decode_real(&f.decryptor.decrypt(&shifted).unwrap());
        for i in 0..32 {
            let expected = 2.0 * xs[i] - ys[i] + 3.0;
            prop_assert!((decoded[i] - expected).abs() < 1e-2);
        }
    }
}

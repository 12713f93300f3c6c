use super::*;
use crate::{
    CkksParams, Decryptor, Encoder, Encryptor, EvalBackend, ExecBackend, GaloisKeys, KeyGenerator,
    RelinearizationKey, SecretKey,
};
use fab_math::Complex64;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

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
    let mut rng = ChaCha20Rng::seed_from_u64(99);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let pk = keygen.public_key(&mut rng);
    let rlk = keygen.relinearization_key(&mut rng);
    let gks = keygen.galois_keys(&[1, 2, 5], true, &mut rng).unwrap();
    Fixture {
        ctx: ctx.clone(),
        encoder: Encoder::new(ctx.clone()),
        encryptor: Encryptor::new(ctx.clone(), pk),
        decryptor: Decryptor::new(ctx.clone(), sk),
        evaluator: Evaluator::new(ctx),
        rlk,
        gks,
        rng,
    }
}

fn sample_values(n: usize, seed: f64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + seed) * 0.37).sin() * 2.0)
        .collect()
}

fn encrypt(f: &mut Fixture, values: &[f64], level: usize) -> Ciphertext {
    let scale = f.ctx.params().default_scale();
    let pt = f.encoder.encode_real(values, scale, level).unwrap();
    f.encryptor.encrypt(&pt, &mut f.rng).unwrap()
}

fn decrypt(f: &Fixture, ct: &Ciphertext) -> Vec<f64> {
    f.encoder.decode_real(&f.decryptor.decrypt(ct).unwrap())
}

#[test]
fn homomorphic_addition_matches_plaintext() {
    let mut f = fixture();
    let a = sample_values(32, 0.0);
    let b = sample_values(32, 100.0);
    let ct_a = encrypt(&mut f, &a, 3);
    let ct_b = encrypt(&mut f, &b, 3);
    let sum = f.evaluator.add(&ct_a, &ct_b).unwrap();
    let decoded = decrypt(&f, &sum);
    for i in 0..32 {
        assert!((decoded[i] - (a[i] + b[i])).abs() < 1e-3);
    }
    let diff = f.evaluator.sub(&ct_a, &ct_b).unwrap();
    let decoded = decrypt(&f, &diff);
    for i in 0..32 {
        assert!((decoded[i] - (a[i] - b[i])).abs() < 1e-3);
    }
}

#[test]
fn addition_aligns_mismatched_levels() {
    let mut f = fixture();
    let a = sample_values(8, 1.0);
    let b = sample_values(8, 2.0);
    let ct_a = encrypt(&mut f, &a, 4);
    let ct_b = encrypt(&mut f, &b, 2);
    let sum = f.evaluator.add(&ct_a, &ct_b).unwrap();
    assert_eq!(sum.level(), 2);
    let decoded = decrypt(&f, &sum);
    for i in 0..8 {
        assert!((decoded[i] - (a[i] + b[i])).abs() < 1e-3);
    }
}

#[test]
fn scale_mismatch_is_rejected() {
    let mut f = fixture();
    let scale = f.ctx.params().default_scale();
    let pt_a = f.encoder.encode_real(&[1.0], scale, 2).unwrap();
    let pt_b = f.encoder.encode_real(&[1.0], scale * 2.0, 2).unwrap();
    let ct_a = f.encryptor.encrypt(&pt_a, &mut f.rng).unwrap();
    let ct_b = f.encryptor.encrypt(&pt_b, &mut f.rng).unwrap();
    assert!(matches!(
        f.evaluator.add(&ct_a, &ct_b),
        Err(CkksError::ScaleMismatch { .. })
    ));
}

#[test]
fn plaintext_addition_and_subtraction() {
    let mut f = fixture();
    let a = sample_values(16, 3.0);
    let b = sample_values(16, 4.0);
    let scale = f.ctx.params().default_scale();
    let ct = encrypt(&mut f, &a, 3);
    let pt = f.encoder.encode_real(&b, scale, 3).unwrap();
    let sum = f.evaluator.add_plain(&ct, &pt).unwrap();
    let decoded = decrypt(&f, &sum);
    for i in 0..16 {
        assert!((decoded[i] - (a[i] + b[i])).abs() < 1e-3);
    }
    // Subtracting a plaintext is adding its negated encoding.
    let negated: Vec<f64> = b.iter().map(|v| -v).collect();
    let neg = f.encoder.encode_real(&negated, scale, 3).unwrap();
    let diff = f.evaluator.add_plain(&ct, &neg).unwrap();
    let decoded = decrypt(&f, &diff);
    for i in 0..16 {
        assert!((decoded[i] - (a[i] - b[i])).abs() < 1e-3);
    }
}

#[test]
fn add_scalar_shifts_every_slot() {
    let mut f = fixture();
    let a = sample_values(16, 5.0);
    let ct = encrypt(&mut f, &a, 2);
    let shifted = f
        .evaluator
        .add_scalar(&ct, Complex64::new(2.5, 0.0))
        .unwrap();
    let decoded = decrypt(&f, &shifted);
    for i in 0..16 {
        assert!((decoded[i] - (a[i] + 2.5)).abs() < 1e-3);
    }
}

#[test]
fn plaintext_multiplication_with_rescale() {
    let mut f = fixture();
    let a = sample_values(16, 6.0);
    let b = sample_values(16, 7.0);
    let scale = f.ctx.params().default_scale();
    let ct = encrypt(&mut f, &a, 3);
    let pt = f.encoder.encode_real(&b, scale, 3).unwrap();
    let product = f.evaluator.multiply_plain(&ct, &pt).unwrap();
    assert!((product.scale() - scale * scale).abs() < 1.0);
    let rescaled = f.evaluator.rescale(&product).unwrap();
    assert_eq!(rescaled.level(), 2);
    let decoded = decrypt(&f, &rescaled);
    for i in 0..16 {
        assert!(
            (decoded[i] - a[i] * b[i]).abs() < 1e-2,
            "slot {i}: {} vs {}",
            decoded[i],
            a[i] * b[i]
        );
    }
}

#[test]
fn ciphertext_multiplication_matches_plaintext_product() {
    let mut f = fixture();
    let a = sample_values(16, 8.0);
    let b = sample_values(16, 9.0);
    let ct_a = encrypt(&mut f, &a, 3);
    let ct_b = encrypt(&mut f, &b, 3);
    let product = f.evaluator.multiply_rescale(&ct_a, &ct_b, &f.rlk).unwrap();
    assert_eq!(product.level(), 2);
    let decoded = decrypt(&f, &product);
    for i in 0..16 {
        assert!(
            (decoded[i] - a[i] * b[i]).abs() < 1e-2,
            "slot {i}: {} vs {}",
            decoded[i],
            a[i] * b[i]
        );
    }
}

#[test]
fn repeated_multiplication_consumes_levels() {
    let mut f = fixture();
    let a = vec![1.1f64; 8];
    let max_level = f.ctx.params().max_level;
    let mut ct = encrypt(&mut f, &a, max_level);
    let mut expected = 1.1f64;
    for _ in 0..3 {
        ct = f.evaluator.multiply_rescale(&ct, &ct, &f.rlk).unwrap();
        expected *= expected;
    }
    let decoded = decrypt(&f, &ct);
    for d in decoded.iter().take(8) {
        assert!((d - expected).abs() < 0.05, "{d} vs {expected}");
    }
    // Level must have dropped by 3.
    assert_eq!(ct.level(), f.ctx.params().max_level - 3);
}

#[test]
fn multiply_at_level_zero_cannot_rescale() {
    let mut f = fixture();
    let ct = encrypt(&mut f, &[1.0], 0);
    assert!(matches!(
        f.evaluator.rescale(&ct),
        Err(CkksError::LevelExhausted { .. })
    ));
    // The fused entry fails like the two-step path: the multiply runs (and is
    // recorded), the rescale reports the exhaustion.
    let sink = fab_trace::RecordingSink::shared("level 0");
    let evaluator = Evaluator::with_sink(f.ctx.clone(), sink.clone());
    assert!(matches!(
        evaluator.multiply_rescale(&ct, &ct, &f.rlk),
        Err(CkksError::LevelExhausted {
            operation: "rescale"
        })
    ));
    assert_eq!(sink.take().ops, vec![HeOp::Multiply { level: 0 }]);
    assert_eq!(evaluator.multiply(&ct, &ct, &f.rlk).unwrap().level(), 0);
}

#[test]
fn multiply_scalar_preserves_scale() {
    let mut f = fixture();
    let a = sample_values(8, 11.0);
    let ct = encrypt(&mut f, &a, 3);
    let scaled = ExecBackend::new(&f.evaluator, &f.gks)
        .multiply_scalar(&ct, Complex64::new(0.5, 0.0))
        .unwrap();
    assert_eq!(scaled.level(), 2);
    assert!((scaled.scale() / ct.scale() - 1.0).abs() < 1e-6);
    let decoded = decrypt(&f, &scaled);
    for i in 0..8 {
        assert!((decoded[i] - a[i] * 0.5).abs() < 1e-3);
    }
}

#[test]
fn rotation_moves_slots_left() {
    let mut f = fixture();
    let n = f.ctx.slot_count();
    let values: Vec<f64> = (0..n).map(|i| (i % 50) as f64 * 0.1).collect();
    let ct = encrypt(&mut f, &values, 3);
    for steps in [1usize, 2, 5] {
        let rotated = f.evaluator.rotate(&ct, steps, &f.gks).unwrap();
        let decoded = decrypt(&f, &rotated);
        for i in 0..64 {
            let expected = values[(i + steps) % n];
            assert!(
                (decoded[i] - expected).abs() < 1e-2,
                "steps {steps}, slot {i}: {} vs {expected}",
                decoded[i]
            );
        }
    }
}

#[test]
fn rotation_without_key_fails() {
    let mut f = fixture();
    let ct = encrypt(&mut f, &[1.0, 2.0], 2);
    assert!(matches!(
        f.evaluator.rotate(&ct, 3, &f.gks),
        Err(CkksError::MissingKey { .. })
    ));
}

#[test]
fn a_foreign_switching_key_is_a_key_mismatch() {
    // The fixture's keys (7 q-limbs in digits of α = 3) in a context with 8 q-limbs in digits
    // of α = 2 and the same 10 raised limbs. At its top level they pass every check of their
    // own geometry (3 digits of 3 limbs cover 8): each key switch must refuse them for their
    // digit width before it reads a digit, not compute a wrong result or panic.
    let f = fixture();
    let params = CkksParams {
        max_level: 7,
        dnum: 4,
        ..CkksParams::testing()
    };
    let ctx = CkksContext::new_arc(params).unwrap();
    assert_eq!((ctx.params().alpha(), f.ctx.params().alpha()), (2, 3));
    let mut rng = ChaCha20Rng::seed_from_u64(33);
    let keygen = KeyGenerator::new(ctx.clone(), SecretKey::generate(&ctx, &mut rng));
    let encryptor = Encryptor::new(ctx.clone(), keygen.public_key(&mut rng));
    let scale = ctx.params().default_scale();
    let pt = Encoder::new(ctx.clone()).encode_real(&sample_values(64, 0.5), scale, 7);
    let ct = encryptor.encrypt(&pt.unwrap(), &mut rng).unwrap();
    let evaluator = Evaluator::new(ctx);
    let (gks, rlk) = (&f.gks, &f.rlk);
    let refused = |result: Result<()>| matches!(result, Err(CkksError::KeyMismatch { .. }));
    assert!(refused(evaluator.rotate(&ct, 1, gks).map(drop)));
    assert!(refused(
        evaluator.rotate_hoisted_batch(&ct, &[1, 2], gks).map(drop)
    ));
    assert!(refused(evaluator.conjugate(&ct, gks).map(drop)));
    assert!(refused(evaluator.multiply_rescale(&ct, &ct, rlk).map(drop)));
    assert!(refused(
        evaluator.key_switch(ct.c1(), &rlk.key, 7).map(drop)
    ));
}

#[test]
fn conjugation_flips_imaginary_parts() {
    let mut f = fixture();
    let scale = f.ctx.params().default_scale();
    let values: Vec<Complex64> = (0..16)
        .map(|i| Complex64::new(i as f64 * 0.2, -(i as f64) * 0.1))
        .collect();
    let pt = f.encoder.encode(&values, scale, 3).unwrap();
    let ct = f.encryptor.encrypt(&pt, &mut f.rng).unwrap();
    let conj = f.evaluator.conjugate(&ct, &f.gks).unwrap();
    let decoded = f.encoder.decode(&f.decryptor.decrypt(&conj).unwrap());
    for i in 0..16 {
        assert!((decoded[i] - values[i].conj()).norm() < 1e-2);
    }
}

#[test]
fn multiply_by_i_matches_scalar_multiplication() {
    let mut f = fixture();
    let scale = f.ctx.params().default_scale();
    let values: Vec<Complex64> = (0..16)
        .map(|i| Complex64::new(1.0 + i as f64 * 0.1, -0.5))
        .collect();
    let pt = f.encoder.encode(&values, scale, 2).unwrap();
    let ct = f.encryptor.encrypt(&pt, &mut f.rng).unwrap();
    let by_i = f.evaluator.multiply_by_i(&ct).unwrap();
    assert_eq!(by_i.level(), ct.level());
    let decoded = f.encoder.decode(&f.decryptor.decrypt(&by_i).unwrap());
    for i in 0..16 {
        let expected = values[i] * Complex64::i();
        assert!((decoded[i] - expected).norm() < 1e-2);
    }
}

#[test]
fn match_scale_aligns_for_addition() {
    let mut f = fixture();
    let a = sample_values(8, 12.0);
    let b = sample_values(8, 13.0);
    let scale = f.ctx.params().default_scale();
    let ct_a = encrypt(&mut f, &a, 4);
    // Produce a ciphertext whose scale differs (product of two scales, then rescaled).
    let pt_b = f.encoder.encode_real(&b, scale, 4).unwrap();
    let ct_ab = f
        .evaluator
        .rescale(&f.evaluator.multiply_plain(&ct_a, &pt_b).unwrap())
        .unwrap();
    // ct_ab has scale ≈ Δ²/q3 which differs slightly from Δ.
    let ct_c = encrypt(&mut f, &a, 4);
    let (x, y) = ExecBackend::new(&f.evaluator, &f.gks)
        .align_for_addition(&ct_ab, &ct_c)
        .unwrap();
    let sum = f.evaluator.add(&x, &y).unwrap();
    let decoded = decrypt(&f, &sum);
    for i in 0..8 {
        let expected = a[i] * b[i] + a[i];
        assert!(
            (decoded[i] - expected).abs() < 1e-2,
            "slot {i}: {} vs {expected}",
            decoded[i]
        );
    }
}

#[test]
fn recording_sink_captures_multiply_rescale_sequence() {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let sink = fab_trace::RecordingSink::shared("ops");
    let evaluator = Evaluator::with_sink(ctx.clone(), sink.clone());
    let mut f = fixture();
    let a = sample_values(8, 20.0);
    let ct_a = encrypt(&mut f, &a, 3);
    let ct_b = encrypt(&mut f, &a, 3);
    // The fixture's keys belong to a different context instance but the parameters are
    // identical, so the instrumented evaluator can operate on its ciphertexts.
    let product = evaluator.multiply_rescale(&ct_a, &ct_b, &f.rlk).unwrap();
    assert_eq!(product.level(), 2);
    let trace = sink.take();
    assert_eq!(
        trace.ops,
        vec![
            fab_trace::HeOp::Multiply { level: 3 },
            fab_trace::HeOp::Rescale { level: 3 }
        ]
    );
    // add/sub record as Add at the aligned level.
    let _ = evaluator.add(&ct_a, &product).unwrap();
    assert_eq!(sink.take().ops, vec![fab_trace::HeOp::Add { level: 2 }]);
}

#[test]
fn recording_sink_distinguishes_hoisted_rotations() {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let sink = fab_trace::RecordingSink::shared("rotations");
    let evaluator = Evaluator::with_sink(ctx, sink.clone());
    let mut f = fixture();
    let values = sample_values(16, 21.0);
    let ct = encrypt(&mut f, &values, 3);

    // One full rotation, then two rotations sharing its decomposition.
    let batch = evaluator
        .rotate_hoisted_batch(&ct, &[1, 2, 5], &f.gks)
        .unwrap();
    // Rotation by 0 (and multiples of the slot count) is free and unrecorded.
    let _ = evaluator.rotate(&ct, 0, &f.gks).unwrap();

    let trace = sink.take();
    assert_eq!(
        trace.ops,
        vec![
            fab_trace::HeOp::Rotate { level: 3 },
            fab_trace::HeOp::RotateHoisted { level: 3 },
            fab_trace::HeOp::RotateHoisted { level: 3 },
        ]
    );
    // The hoisted execution path is the same math: results decrypt correctly.
    for (steps, rotated) in [1usize, 2, 5].into_iter().zip(&batch) {
        let decoded = decrypt(&f, rotated);
        for i in 0..8 {
            // i + steps stays inside the 16 encoded slots for these cases.
            assert!(
                (decoded[i] - values[i + steps]).abs() < 1e-2,
                "steps {steps} slot {i}: {} vs {}",
                decoded[i],
                values[i + steps]
            );
        }
    }
}

#[test]
fn hoisted_batch_shares_decomposition_and_matches_per_op_rotations() {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let sink = fab_trace::RecordingSink::shared("batch");
    let evaluator = Evaluator::with_sink(ctx, sink.clone());
    let mut f = fixture();
    let values = sample_values(16, 23.0);
    let ct = encrypt(&mut f, &values, 3);

    // One shared Decomp → ModUp drives rotations by 1, 2 and 5; step 0 is a free clone.
    let batch = evaluator
        .rotate_hoisted_batch(&ct, &[1, 0, 2, 5], &f.gks)
        .unwrap();
    assert_eq!(batch.len(), 4);
    assert_eq!(
        sink.take().ops,
        vec![
            fab_trace::HeOp::Rotate { level: 3 },
            fab_trace::HeOp::RotateHoisted { level: 3 },
            fab_trace::HeOp::RotateHoisted { level: 3 },
        ]
    );
    // Each batch output decrypts identically (within noise) to the per-op rotation.
    for (i, &steps) in [1usize, 0, 2, 5].iter().enumerate() {
        let reference = f.evaluator.rotate(&ct, steps, &f.gks).unwrap();
        let got = decrypt(&f, &batch[i]);
        let expected = decrypt(&f, &reference);
        for slot in 0..8 {
            assert!(
                (got[slot] - expected[slot]).abs() < 1e-2,
                "steps {steps} slot {slot}: {} vs {}",
                got[slot],
                expected[slot]
            );
        }
    }
    // A missing key fails the batch just like the per-op path.
    assert!(matches!(
        evaluator.rotate_hoisted_batch(&ct, &[1, 3], &f.gks),
        Err(CkksError::MissingKey { .. })
    ));
}

#[test]
fn counting_sink_meters_without_recording_order() {
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let sink = fab_trace::CountingSink::shared();
    let evaluator = Evaluator::with_sink(ctx, sink.clone());
    let mut f = fixture();
    let values = sample_values(8, 22.0);
    let ct = encrypt(&mut f, &values, 3);
    let _ = evaluator.multiply_rescale(&ct, &ct, &f.rlk).unwrap();
    let _ = evaluator.rotate(&ct, 1, &f.gks).unwrap();
    let counts = sink.counts();
    assert_eq!(counts.multiply, 1);
    assert_eq!(counts.rescale, 1);
    assert_eq!(counts.rotate, 1);
    assert_eq!(counts.add, 0);
}

#[test]
fn default_evaluator_sink_is_noop() {
    let f = fixture();
    assert!(!f.evaluator.sink().is_enabled());
}

#[test]
fn worker_count_is_invisible_in_results() {
    // Limb partitioning is disjoint, so any FAB_THREADS setting must produce bitwise
    // identical ciphertexts — the determinism contract of fab-par.
    let mut f = fixture();
    let a = sample_values(16, 30.0);
    let b = sample_values(16, 31.0);
    let ct_a = encrypt(&mut f, &a, 3);
    let ct_b = encrypt(&mut f, &b, 3);
    let single = {
        fab_par::set_threads(1);
        let product = f.evaluator.multiply_rescale(&ct_a, &ct_b, &f.rlk).unwrap();
        f.evaluator.rotate(&product, 1, &f.gks).unwrap()
    };
    for workers in [2usize, 4] {
        fab_par::set_threads(workers);
        let product = f.evaluator.multiply_rescale(&ct_a, &ct_b, &f.rlk).unwrap();
        let rotated = f.evaluator.rotate(&product, 1, &f.gks).unwrap();
        assert_eq!(rotated.c0, single.c0, "c0 diverged at {workers} workers");
        assert_eq!(rotated.c1, single.c1, "c1 diverged at {workers} workers");
    }
    fab_par::set_threads(1);
}

/// The arena leases words it does not clear: with every pooled word poisoned to `u64::MAX`
/// before each call, a key switch, a multiply-rescale (the dual-form seam) and a hoisted
/// rotation batch are bit-identical to the same calls on a fresh evaluator, whose pool starts
/// empty.
#[test]
fn poisoned_arena_words_are_invisible_in_results() {
    let mut f = fixture();
    let ct_a = encrypt(&mut f, &sample_values(32, 3.0), 3);
    let ct_b = encrypt(&mut f, &sample_values(32, 4.0), 3);
    type Call<'a> = Box<dyn Fn(&Evaluator) -> Vec<Ciphertext> + 'a>;
    let calls: [(&str, Call); 3] = [
        (
            "key_switch",
            Box::new(|e| {
                let (k0, k1) = e.key_switch(ct_a.c1(), &f.rlk.key, 3).unwrap();
                vec![Ciphertext::from_parts(k0, k1, 1.0, 3)]
            }),
        ),
        (
            "multiply_rescale",
            Box::new(|e| vec![e.multiply_rescale(&ct_a, &ct_b, &f.rlk).unwrap()]),
        ),
        (
            "rotate_hoisted_batch",
            Box::new(|e| e.rotate_hoisted_batch(&ct_a, &[1, 2, 5], &f.gks).unwrap()),
        ),
    ];
    let poisoned = Evaluator::new(f.ctx.clone());
    for (name, call) in &calls {
        let expected = call(&Evaluator::new(f.ctx.clone()));
        // Twice: the first call fills the pool, the second leases its poisoned buffers.
        for _ in 0..2 {
            poisoned.scratch().poison();
            assert_eq!(call(&poisoned), expected, "{name}: a poisoned word leaked");
        }
    }
}

//! The key-switched automorphisms (`rotate`, `conjugate`, `rotate_hoisted_batch`, all one
//! hoisted loop) against their definitions: the cleartext slot permutation, and the
//! coefficient-domain oracle in `support` (automorph both parts, key-switch `σ(c1)`, add
//! `k0`). Plus the two facts the oracle stands on: an automorphism alone decrypts under the
//! automorphed secret, and a key switch alone (the identity element) keeps the message.

mod support;

use fab_ckks::{
    Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator,
    KeyProvider, KeyRef, SecretKey,
};
use fab_math::{galois_element_for_conjugation, galois_element_for_rotation, Complex64};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use support::galois_oracle;

/// Worst-case `‖·‖∞` of one key switch's noise in the decryption of `(k0, k1)` at `level`
/// (the noise `k0 + k1·s − d·σ(s)` of Han–Ki hybrid key switching):
///
/// * ModDown computes `(x − [x]_P)/P − v` with the fast conversion's overflow `0 ≤ v < k`, so
///   each of `k0`, `k1` is off by at most `k + 1` per coefficient, and `k0 + k1·s` by at most
///   `(k + 1)(1 + h)` for a ternary secret of Hamming weight `h`;
/// * each raised digit `d̃_j` (a ModUp lift, `‖d̃_j‖∞ ≤ (α + 1)·Q_j`) meets its key error
///   (`‖e_j‖∞ ≤ 6σ`, the sampler's clip) in an `N`-term product, divided by `P`.
fn key_switch_noise(ctx: &CkksContext, level: usize) -> f64 {
    let params = ctx.params();
    let (alpha, special) = (params.alpha(), params.special_limbs());
    let h = params.secret_hamming_weight.unwrap_or(ctx.degree()) as f64;
    let log2 = |values: &[u64]| values.iter().map(|&q| (q as f64).log2()).sum::<f64>();
    let q = &ctx.q_basis().values()[..=level];
    let p = log2(&ctx.p_basis().values());
    let key_errors: f64 = q
        .chunks(alpha)
        .map(|digit| {
            let n = ctx.degree() as f64;
            n * (alpha as f64 + 1.0) * 6.0 * params.error_std * (log2(digit) - p).exp2()
        })
        .sum();
    (special as f64 + 1.0) * (1.0 + h) + key_errors
}

/// Per-slot error bound of a coefficient-noise bound `coeff` at scale `scale`: decoding
/// evaluates the noise at roots of unity, so every slot moves by at most `N·coeff/scale`.
fn slot_bound(ctx: &CkksContext, coeff: f64, scale: f64) -> f64 {
    ctx.degree() as f64 * coeff / scale
}

fn max_distance(a: &[Complex64], b: &[Complex64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).norm())
        .fold(0.0, f64::max)
}

/// Every key-switched automorphism at `params` (rotations by 1, 5 and `slots − 1`, and the
/// conjugation) through `rotate` / `conjugate` and through one hoisted batch, each held to
/// the cleartext and to the oracle.
fn galois_ops_match_cleartext_and_oracle(params: CkksParams, seed: u64) {
    let ctx = CkksContext::new_arc(params).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let encryptor = Encryptor::new(ctx.clone(), keygen.public_key(&mut rng));
    let decryptor = Decryptor::new(ctx.clone(), sk);
    let encoder = Encoder::new(ctx.clone());
    let evaluator = Evaluator::new(ctx.clone());

    let slots = ctx.slot_count();
    let steps = [1, 5, slots - 1];
    let keys = keygen.galois_keys(&steps, true, &mut rng).unwrap();
    let values: Vec<Complex64> = (0..slots)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let level = ctx.params().max_level;
    let scale = ctx.params().default_scale();
    let ct = encryptor
        .encrypt(&encoder.encode(&values, scale, level).unwrap(), &mut rng)
        .unwrap();
    let decrypt = |c: &Ciphertext| encoder.decode(&decryptor.decrypt(c).unwrap());

    // Two key switches' noises against each other, and against the cleartext: the fresh
    // encryption noise `v·e + e0 + e1·s` (`‖v·e‖∞ ≤ N·6σ`), the encoding's rounding (½) and
    // one key switch.
    let switch_noise = key_switch_noise(&ctx, level);
    let h = ctx.params().secret_hamming_weight.unwrap_or(ctx.degree()) as f64;
    let six_sigma = 6.0 * ctx.params().error_std;
    let fresh = six_sigma * (ctx.degree() as f64 + 1.0 + h) + 0.5;
    let oracle_bound = slot_bound(&ctx, 2.0 * switch_noise, scale);
    let cleartext_bound = slot_bound(&ctx, fresh + switch_noise, scale);

    let batch = evaluator.rotate_hoisted_batch(&ct, &steps, &keys).unwrap();
    let rotations = steps.iter().zip(&batch).map(|(&s, batched)| {
        let single = evaluator.rotate(&ct, s, &keys).unwrap();
        let one = evaluator.rotate_hoisted_batch(&ct, &[s], &keys).unwrap();
        assert!(
            one[0] == single,
            "rotate({s}) differs from its batch of one"
        );
        assert!(
            *batched == single,
            "rotate({s}) differs from its batch element"
        );
        let expected = (0..slots).map(|i| values[(i + s) % slots]).collect();
        let element = galois_element_for_rotation(ctx.degree(), s);
        (format!("rotate({s})"), single, element, expected)
    });
    let conjugated = evaluator.conjugate(&ct, &keys).unwrap();
    let conjugation = (
        "conjugate".to_string(),
        conjugated,
        galois_element_for_conjugation(ctx.degree()),
        values.iter().map(|v| v.conj()).collect::<Vec<_>>(),
    );

    for (what, got, element, expected) in rotations.chain([conjugation]) {
        let key = keys.key(KeyRef::Galois(element)).unwrap();
        let oracle = galois_oracle(&evaluator, &ct, element, &key);
        assert_eq!((got.level(), got.scale()), (oracle.level(), oracle.scale()));
        let got = decrypt(&got);
        let to_oracle = max_distance(&got, &decrypt(&oracle));
        let to_cleartext = max_distance(&got, &expected);
        eprintln!(
            "{what}: |got − oracle| {to_oracle:.2e} (bound {oracle_bound:.2e}), \
             |got − cleartext| {to_cleartext:.2e} (bound {cleartext_bound:.2e})"
        );
        assert!(
            to_oracle <= oracle_bound,
            "{what}: {to_oracle:e} from the oracle"
        );
        assert!(
            to_cleartext <= cleartext_bound,
            "{what}: {to_cleartext:e} from the cleartext"
        );
    }
}

#[test]
fn galois_ops_match_cleartext_and_oracle_at_testing() {
    galois_ops_match_cleartext_and_oracle(CkksParams::testing(), 38);
}

#[test]
fn galois_ops_match_cleartext_and_oracle_at_bootstrap_testing() {
    galois_ops_match_cleartext_and_oracle(CkksParams::bootstrap_testing(), 83);
}

#[test]
fn identity_galois_element_keyswitch_preserves_message() {
    // Element 1 is the identity automorphism; the oracle with a switching key for
    // sigma_1(s) = s exercises the key-switch path in isolation from any slot permutation.
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let pk = keygen.public_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);
    let decryptor = Decryptor::new(ctx.clone(), sk);
    let evaluator = Evaluator::new(ctx.clone());

    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..16).map(|i| i as f64 * 0.25 - 2.0).collect();
    let pt = encoder.encode_real(&values, scale, 3).unwrap();
    let ct = encryptor.encrypt(&pt, &mut rng).unwrap();

    let key = keygen.galois_key(1, &mut rng).unwrap();
    let switched = galois_oracle(&evaluator, &ct, 1, &key);
    let decoded = encoder.decode_real(&decryptor.decrypt(&switched).unwrap());
    for i in 0..16 {
        assert!(
            (decoded[i] - values[i]).abs() < 1e-2,
            "slot {i}: {} vs {}",
            decoded[i],
            values[i]
        );
    }
}

#[test]
fn automorphed_ciphertext_decrypts_under_automorphed_secret() {
    // Apply sigma_g to the ciphertext polynomials only (no key switch) and decrypt with a
    // decryptor built from sigma_g(s). The slots must be the left-rotated original slots.
    let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(6);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let pk = keygen.public_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone(), pk);

    let scale = ctx.params().default_scale();
    let n = ctx.slot_count();
    let values: Vec<f64> = (0..n).map(|i| (i % 23) as f64 * 0.1).collect();
    let pt = encoder.encode_real(&values, scale, 2).unwrap();
    let ct = encryptor.encrypt(&pt, &mut rng).unwrap();

    let steps = 1usize;
    let element = fab_math::galois_element_for_rotation(ctx.degree(), steps);
    let basis = ctx.basis_at_level(ct.level()).unwrap();
    let c0 = ct.c0().automorphism(element, &basis).unwrap();
    let c1 = ct.c1().automorphism(element, &basis).unwrap();
    let rotated = fab_ckks::Ciphertext::from_parts(c0, c1, ct.scale(), ct.level());

    // Decrypt with sigma(s).
    let sigma_s_coeffs = {
        let degree = ctx.degree();
        let m = 2 * degree as u64;
        let mut out = vec![0i64; degree];
        for (i, &c) in sk.coeffs().iter().enumerate() {
            let raw = (i as u64 * element) % m;
            if raw < degree as u64 {
                out[raw as usize] = c;
            } else {
                out[(raw - degree as u64) as usize] = -c;
            }
        }
        out
    };
    let sigma_sk = SecretKey::from_coeffs(&ctx, sigma_s_coeffs);
    let sigma_decryptor = Decryptor::new(ctx.clone(), sigma_sk);
    let decoded = encoder.decode_real(&sigma_decryptor.decrypt(&rotated).unwrap());

    let mut mismatches_left = 0;
    let mut mismatches_right = 0;
    for i in 0..64 {
        let left = values[(i + steps) % n];
        let right = values[(i + n - steps) % n];
        if (decoded[i] - left).abs() > 1e-2 {
            mismatches_left += 1;
        }
        if (decoded[i] - right).abs() > 1e-2 {
            mismatches_right += 1;
        }
    }
    assert!(
        mismatches_left == 0 || mismatches_right == 0,
        "automorphism alone already scrambles slots: left-mismatch {mismatches_left}, right-mismatch {mismatches_right}, sample: decoded[0..4] = {:?}, values[0..4] = {:?}",
        &decoded[..4],
        &values[..4]
    );
    assert_eq!(
        mismatches_left, 0,
        "rotation direction is right-rotation rather than the documented left-rotation"
    );
}

//! A real constant is a per-limb scalar: `multiply_const`, `accumulate_const` and `add_scalar`
//! must produce, bit for bit, what the encoded-plaintext route (`encode_constant` +
//! `multiply_plain` / `add_plain`) produces — in both domains, at any level, for negative,
//! zero and boundary-magnitude constants — and fail with the identical typed error where that
//! route fails. On top of that the whole Chebyshev evaluation, with its fused leaf and its
//! zero-term skip, must equal the term-by-term plaintext oracle in `support`.

mod support;

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use fab_ckks::{
    ChebyshevSeries, Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, EvalBackend,
    Evaluator, ExecBackend, GaloisKeys, KeyGenerator, RelinearizationKey, Result, SecretKey,
};
use fab_math::Complex64;
use fab_trace::{HeOp, RecordingSink};

struct Fixture {
    ctx: Arc<CkksContext>,
    evaluator: Evaluator,
    sink: Arc<RecordingSink>,
    rlk: RelinearizationKey,
    fresh: Ciphertext,
}

fn fixture(params: CkksParams, seed: u64) -> Fixture {
    let ctx = CkksContext::new_arc(params).expect("context");
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk);
    let pk = keygen.public_key(&mut rng);
    let rlk = keygen.relinearization_key(&mut rng);
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| ((i as f64 + 1.0) * 0.37).sin() * 0.9)
        .collect();
    let pt = Encoder::new(ctx.clone())
        .encode_real(
            &values,
            ctx.params().default_scale(),
            ctx.params().max_level,
        )
        .expect("encode");
    let fresh = Encryptor::new(ctx.clone(), pk)
        .encrypt(&pt, &mut rng)
        .expect("encrypt");
    let sink = RecordingSink::shared("constant-ops");
    Fixture {
        evaluator: Evaluator::with_sink(ctx.clone(), sink.clone()),
        ctx,
        sink,
        rlk,
        fresh,
    }
}

fn small_params(log_n: usize, max_level: usize) -> CkksParams {
    CkksParams {
        log_n,
        scale_bits: 40,
        first_prime_bits: 50,
        max_level,
        dnum: 2,
        secret_hamming_weight: Some((1usize << log_n).min(32)),
        ..CkksParams::testing()
    }
}

/// `(value, pt_scale)` by case: ordinary, negative, zero, the 62-bit boundary from both
/// sides, and the scales `encode_constant` refuses.
fn constant_case(kind: u8, unit: f64) -> (f64, f64) {
    let scale = 2f64.powi(40);
    let boundary = 2f64.powi(62) / scale;
    match kind % 10 {
        0 => (unit * 3.0, scale),
        1 => (-unit.abs() - 0.5, scale),
        2 => (0.0, scale),
        3 => (unit * 1e-17, scale), // rounds to zero
        4 => (boundary, scale),     // |round(v·Δ)| = 2^62: the last accepted value
        5 => (-boundary, scale),
        6 => (boundary * (1.0 + 2f64.powi(-40)), scale), // just past it: refused
        7 => (unit, 0.0),
        8 => (unit, -scale),
        _ => (unit, f64::INFINITY),
    }
}

/// The ops an evaluator call recorded, with its result.
fn traced<T>(f: &Fixture, run: impl FnOnce() -> Result<T>) -> (Result<T>, Vec<HeOp>) {
    f.sink.take();
    let out = run();
    (out, f.sink.take().ops)
}

proptest! {
    // Context construction dominates; each case checks every constant op in both domains.
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_scalar_constant_ops_equal_the_encoded_plaintext_route(
        log_n in 3usize..8,
        max_level in 1usize..5,
        level_seed in any::<u64>(),
        seed in any::<u64>(),
        kind in any::<u8>(),
        unit in -1.0f64..1.0,
        imag in -1.0f64..1.0,
    ) {
        let f = fixture(small_params(log_n, max_level), seed);
        let e = &f.evaluator;
        let level = (level_seed % (max_level as u64 + 1)) as usize;
        let coeff_ct = e.mod_drop_to_level(&f.fresh, level).unwrap();
        let (value, pt_scale) = constant_case(kind, unit);

        for ct in [coeff_ct.clone(), e.to_evaluation_form(&coeff_ct).unwrap()] {
            for constant in [Complex64::new(value, 0.0), Complex64::new(value, imag)] {
                // multiply_const vs encode_constant + multiply_plain.
                let (got, got_ops) = traced(&f, || e.multiply_const(&ct, constant, pt_scale));
                let (want, want_ops) = traced(&f, || {
                    let pt = e.encoder().encode_constant(constant, pt_scale, ct.level())?;
                    e.multiply_plain(&ct, &pt)
                });
                prop_assert_eq!(&got, &want, "multiply_const diverged for {:?}", constant);
                prop_assert_eq!(got_ops, want_ops);

                // add_scalar vs encode_constant + add_plain (the scale is the ciphertext's).
                let shift = Complex64::new(constant.re.clamp(-4.0, 4.0), constant.im);
                let (got, got_ops) = traced(&f, || e.add_scalar(&ct, shift));
                let (want, want_ops) = traced(&f, || {
                    let pt = e.encoder().encode_constant(shift, ct.scale(), ct.level())?;
                    e.add_plain(&ct, &pt)
                });
                prop_assert_eq!(&got, &want, "add_scalar diverged for {:?}", shift);
                prop_assert_eq!(got_ops, want_ops);
            }

            // accumulate_const vs multiply_const at the accumulator's level + add, with the
            // term read from a higher level and (second pass) from the other domain.
            let seeded = e.multiply_const(&ct, Complex64::new(0.75, 0.0), 2f64.powi(40)).unwrap();
            for term in [f.fresh.clone(), e.to_evaluation_form(&f.fresh).unwrap()] {
                let mut acc = seeded.clone();
                let (got, got_ops) = traced(&f, || e.accumulate_const(&mut acc, &term, value, pt_scale));
                let (want, want_ops) = traced(&f, || {
                    let dropped = e.mod_drop_to_level(&term, level)?;
                    let product = e.multiply_const(&dropped, Complex64::new(value, 0.0), pt_scale)?;
                    e.add(&seeded, &product)
                });
                match (got, want) {
                    (Ok(()), Ok(want)) => {
                        prop_assert_eq!(&acc, &want, "accumulate_const diverged");
                        prop_assert_eq!(got_ops, want_ops);
                    }
                    (Err(got), Err(want)) => {
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(&acc, &seeded, "a refused accumulate touched acc");
                    }
                    (got, want) => prop_assert!(false, "{:?} vs {:?}", got, want.map(|_| ())),
                }
            }
        }
    }
}

#[test]
fn multiply_scalar_and_match_scale_equal_the_encoded_plaintext_route() {
    let f = fixture(CkksParams::testing(), 12);
    let e = &f.evaluator;
    let no_keys = GaloisKeys::default();
    let backend = ExecBackend::new(e, &no_keys);
    let ct = &f.fresh;
    let prime = f.ctx.rescale_prime(ct.level()) as f64;
    let via_plain = |constant: Complex64, pt_scale: f64| {
        let pt = e
            .encoder()
            .encode_constant(constant, pt_scale, ct.level())
            .unwrap();
        e.rescale(&e.multiply_plain(ct, &pt).unwrap()).unwrap()
    };
    for scalar in [Complex64::new(-0.3125, 0.0), Complex64::new(0.5, -2.0)] {
        assert_eq!(
            backend.multiply_scalar(ct, scalar).unwrap(),
            via_plain(scalar, prime)
        );
    }
    let target = ct.scale() * 0.75;
    let matched = backend.match_scale(ct, target).unwrap();
    let enc_scale = (target * prime / ct.scale()).round();
    let want = via_plain(Complex64::one(), enc_scale);
    assert_eq!((matched.c0(), matched.c1()), (want.c0(), want.c1()));
    assert_eq!(matched.scale(), target);
}

/// Production Chebyshev evaluation vs the plaintext-route oracle: parts, level and scale.
fn assert_matches_oracle(f: &Fixture, series: &ChebyshevSeries) {
    let oracle = support::Oracle {
        evaluator: &f.evaluator,
        rlk: &f.rlk,
    };
    let want = oracle.evaluate(series, &f.fresh);
    let keys = (&f.rlk, &GaloisKeys::default());
    let got = series
        .evaluate_with(&ExecBackend::new(&f.evaluator, &keys), &f.fresh)
        .unwrap();
    assert_eq!(got.level(), want.level());
    assert_eq!(got.scale(), want.scale());
    assert_eq!(got.c0(), want.c0(), "c0 diverged from the oracle");
    assert_eq!(got.c1(), want.c1(), "c1 diverged from the oracle");
}

#[test]
fn bootstrap_cosine_equals_the_plaintext_leaf_oracle() {
    // EvalMod's series at `bootstrap_testing()` with `k_range` 16 under cap 159, at the pair
    // the bootstrapper picks there (four double-angle steps, degree 31):
    // cos(2π(17t − 1/4)/16). Its live terms go through the fused accumulate at their
    // exact-scale ratios, its giant steps meet remainders a level up, which the exact match
    // brings down, and its tail coefficients are dust at the leaf's scale — skipped by
    // production, multiplied through by the oracle.
    let tau = 2.0 * std::f64::consts::PI;
    let series = ChebyshevSeries::fit(|t| (tau * (17.0 * t - 0.25) / 16.0).cos(), 31, -1.0, 1.0);
    let dead = series
        .coefficients()
        .iter()
        .filter(|c| c.abs() > 0.0 && c.abs() < 1e-14)
        .count();
    assert!(
        dead >= 4,
        "expected the tail coefficients to be dust, found {dead}"
    );
    assert_matches_oracle(&fixture(CkksParams::bootstrap_testing(), 7), &series);
}

#[test]
fn helr_sigmoid_equals_the_plaintext_leaf_oracle() {
    // At `testing()`: the logistic function (σ − ½ is odd, so the even coefficients above c_0
    // are dust here too), and HELR's own cubic on its clamp range, whose domain brings in the
    // affine map — `multiply_scalar` + `add_scalar` — ahead of single-term leaves.
    let f = fixture(CkksParams::testing(), 8);
    let logistic = ChebyshevSeries::fit(|x| 1.0 / (1.0 + (-x).exp()), 7, -1.0, 1.0);
    assert_matches_oracle(&f, &logistic);
    let cubic = |z: f64| 0.5 + 0.15012 * z - 0.001593 * z * z * z;
    assert_matches_oracle(&f, &ChebyshevSeries::fit(cubic, 3, -8.0, 8.0));
}

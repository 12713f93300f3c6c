//! The metered runs `ntt_accounting.rs` and `bytes_accounting.rs` check: each function runs
//! a group of operations once on a [`Fixture`] and returns, per run, what the thread's meter
//! was charged and the operation's closed form in `fab_ckks::accounting`. The transform file
//! asserts the `transforms` half of every case and the bytes file the `bytes` half, so the
//! two files together hold each run to its whole `Tally`. Assertions that are about the
//! outputs, not the meter (bitwise results, the stages' giant steps), are made here.

use fab::ckks::accounting::{self, Tally};
use fab::ckks::linear_transform::{coeff_to_slot_stages, LinearTransform};
use fab::prelude::*;
use fab::rns::metering::kernel;

use crate::fixture::{banded, metered, Fixture, LEVEL};

/// One metered run: what it charged and what its closed form says it costs.
pub struct Case {
    pub what: String,
    pub charged: Tally,
    pub formula: Tally,
}

fn case(what: impl Into<String>, charged: Tally, formula: Tally) -> Case {
    Case {
        what: what.into(),
        charged,
        formula,
    }
}

/// A raw key switch (coefficient entry), `multiply` and the fused `multiply_rescale`.
pub fn multiply_and_key_switch() -> Vec<Case> {
    let mut f = Fixture::new(4242);
    let rlk = f.keygen.relinearization_key(&mut f.rng);
    let (degree, limbs, special, alpha) = f.shape();
    let basis = f.ctx.basis_at_level(LEVEL).unwrap();
    let d = fab::ckks::sampling::sample_uniform(&mut f.rng, &basis);
    let a = f.encrypt(16, LEVEL);
    let b = f.encrypt(16, LEVEL);

    let (_, key_switch) = metered(|| f.evaluator.key_switch(&d, &rlk.key, LEVEL).unwrap());
    let (_, multiply) = metered(|| f.evaluator.multiply(&a, &b, &rlk).unwrap());
    // The fused ModDown+rescale performs multiply's transforms but its own conversion
    // traffic (the top prime is treated as a special limb).
    let (_, fused) = metered(|| f.evaluator.multiply_rescale(&a, &b, &rlk).unwrap());
    assert_eq!(fused.transforms, multiply.transforms);
    vec![
        case(
            "key_switch",
            key_switch,
            accounting::key_switch(degree, limbs, special, alpha),
        ),
        case(
            "multiply",
            multiply,
            accounting::multiply(degree, limbs, special, alpha),
        ),
        case(
            "multiply_rescale",
            fused,
            accounting::multiply_rescale(degree, limbs, special, alpha),
        ),
    ]
}

/// The real-constant ops and a 15-term Chebyshev leaf, in both domains.
///
/// A real constant is a per-limb scalar: `multiply_const`, `accumulate_const` and
/// `add_scalar` perform no transform in either domain, so `multiply_scalar` and
/// `match_scale` cost one constant product plus what their rescale costs (the `2·(ℓ+1)`
/// inverses of the coefficient boundary on evaluation input, then both parts' rescale),
/// `align_exact` the same one level up, and a leaf reaches its rescale with its seed and
/// fourteen accumulate passes, and not a byte more.
pub fn constant_ops_and_leaf() -> Vec<Case> {
    let mut f = Fixture::new(606);
    let (degree, limbs, _, _) = f.shape();
    let fresh = f.encrypt(16, LEVEL + 2);
    let ev = &f.evaluator;
    let scale = f.ctx.params().default_scale();
    let prime = f.ctx.rescale_prime(LEVEL) as f64;
    let multiply_const = accounting::multiply_const(degree, limbs);

    let no_keys = GaloisKeys::default();
    let backend = ExecBackend::new(ev, &no_keys);
    let coeff = ev.mod_drop_to_level(&fresh, LEVEL).unwrap();
    let eval = ev.to_evaluation_form(&coeff).unwrap();
    let fresh_eval = ev.to_evaluation_form(&fresh).unwrap();
    // One level above `coeff`, at a scale `align_exact` has to match.
    let mut up = ev.mod_drop_to_level(&fresh, LEVEL + 1).unwrap();
    up.scale = scale * 0.75;
    let up_eval = ev.to_evaluation_form(&up).unwrap();
    let mut cases = Vec::new();
    for (domain, ct, term, up, add_scalar, to_coefficient) in [
        // add_scalar: one word per limb in coefficient form (below the meter's row-pass
        // granularity), one unary pass over c0 in evaluation form.
        ("coefficient", &coeff, &fresh, &up, Tally::ZERO, None),
        (
            "evaluation",
            &eval,
            &fresh_eval,
            &up_eval,
            kernel::pointwise_unary(degree, limbs),
            Some(kernel::ntt_inverse(degree)),
        ),
    ] {
        // A rescale over `limbs` limbs: the coefficient boundary on evaluation input, then
        // both parts.
        let rescale_over = |limbs: usize| {
            to_coefficient.map_or(Tally::ZERO, |inverse| inverse.times(2 * limbs as u64))
                + kernel::rescale(degree, limbs).times(2)
        };
        let rescale = rescale_over(limbs);
        let c = Complex64::new(-0.37, 0.0);
        let mut run = |what: &str, charged: Tally, formula: Tally| {
            cases.push(case(format!("{what} ({domain})"), charged, formula));
        };
        run(
            "multiply_const",
            metered(|| ev.multiply_const(ct, c, prime).unwrap()).1,
            multiply_const,
        );
        run(
            "add_scalar",
            metered(|| ev.add_scalar(ct, c).unwrap()).1,
            add_scalar,
        );
        run(
            "multiply_scalar",
            metered(|| backend.multiply_scalar(ct, c).unwrap()).1,
            multiply_const + rescale,
        );
        run(
            "match_scale",
            metered(|| backend.match_scale(ct, scale * 0.75).unwrap()).1,
            multiply_const + rescale,
        );
        run(
            "align_exact",
            metered(|| backend.align_exact(up, ct).unwrap()).1,
            accounting::multiply_const(degree, limbs + 1) + rescale_over(limbs + 1),
        );

        // The leaf: a seed and fourteen accumulations off terms held two levels higher, read
        // in place.
        let (acc, leaf) = metered(|| {
            let mut sum = ev
                .multiply_const(ct, Complex64::new(0.5, 0.0), prime)
                .unwrap();
            for j in 2..=15 {
                ev.accumulate_const(&mut sum, term, 1.0 / j as f64, prime)
                    .unwrap();
            }
            sum
        });
        run(
            "the Chebyshev leaf",
            leaf,
            multiply_const + accounting::accumulate_const(degree, limbs).times(14),
        );
        run(
            "the leaf's rescale",
            metered(|| ev.rescale(&acc).unwrap()).1,
            rescale,
        );
    }
    cases
}

/// A hoisted batch of three key-switched rotations and a free step, a batch of free steps,
/// and a single rotation and a conjugation, each a batch of one.
pub fn rotation_and_hoisted_batch() -> Vec<Case> {
    let mut f = Fixture::new(1212);
    let keys = f.keygen.galois_keys(&[1, 2, 5], true, &mut f.rng).unwrap();
    let (degree, limbs, special, alpha) = f.shape();
    let ct = f.encrypt(32, LEVEL);
    let ev = &f.evaluator;

    vec![
        // One shared digit raise (the β·R forward sweep), then per rotation 2R inverses and
        // the permuted KSKIP sweep.
        case(
            "hoisted batch",
            metered(|| ev.rotate_hoisted_batch(&ct, &[1, 0, 2, 5], &keys).unwrap()).1,
            accounting::hoisted_rotation_batch(degree, limbs, special, alpha, 3),
        ),
        // A pure copy: nothing charged.
        case(
            "batch of free steps",
            metered(|| ev.rotate_hoisted_batch(&ct, &[0], &keys).unwrap()).1,
            Tally::ZERO,
        ),
        // The same loop with one element: one raise, one permuted key switch, one `c0`
        // automorphism gather and the combine.
        case(
            "rotation",
            metered(|| ev.rotate(&ct, 1, &keys).unwrap()).1,
            accounting::hoisted_rotation_batch(degree, limbs, special, alpha, 1),
        ),
        case(
            "conjugation",
            metered(|| ev.conjugate(&ct, &keys).unwrap()).1,
            accounting::hoisted_rotation_batch(degree, limbs, special, alpha, 1),
        ),
    ]
}

/// The stages the eval-resident schedule is pinned on: the first bootstrap CoeffToSlot
/// stage, offsets {0, 1, 2} (giants [0]: the one unrotated group pays its inverse pair at
/// the rescale) and 32..40 ∪ 48..56 (giants [32, 36, 48, 52]: every group pays it at its
/// rotation).
fn bsgs_stages(ctx: &CkksContext) -> Vec<LinearTransform> {
    let slots = ctx.slot_count();
    let stages = vec![
        coeff_to_slot_stages(ctx.fft(), ctx.params().fft_iter)
            .into_iter()
            .next()
            .expect("at least one CoeffToSlot stage"),
        banded(slots, 0..3),
        banded(slots, (32..40).chain(48..56)),
    ];
    let giants = |stage: &LinearTransform| -> Vec<usize> {
        stage.bsgs_plan().groups().iter().map(|g| g.giant).collect()
    };
    assert_eq!(giants(&stages[1]), [0]);
    assert_eq!(giants(&stages[2]), [32, 36, 48, 52]);
    stages
}

/// Each BSGS stage applied twice through the eval-resident path: the first application pays
/// the one-time NTT-diagonal cache fill (`warm`), every later one performs zero plaintext
/// forward transforms, and the gap between them is exactly that fill — `diagonals·limbs`
/// forwards and their row passes — and nothing else.
pub fn bsgs_stages_warm_and_steady() -> Vec<Case> {
    let mut f = Fixture::new(77);
    let (degree, limbs, special, alpha) = f.shape();
    let ct = f.encrypt(f.ctx.slot_count(), LEVEL);

    let mut cases = Vec::new();
    for stage in bsgs_stages(&f.ctx) {
        let plan = stage.bsgs_plan();
        let keys = f
            .keygen
            .galois_keys(&stage.required_rotations(), false, &mut f.rng)
            .unwrap();
        let backend = ExecBackend::new(&f.evaluator, &keys);
        let diagonals = stage.diagonal_count();
        let formula = |warm| {
            accounting::bsgs_stage_eval(degree, limbs, special, alpha, plan, diagonals, warm)
        };
        let shape = format!(
            "babies={}, giants={}, diagonals={diagonals}",
            plan.baby_rotation_count(),
            plan.giant_rotation_count()
        );

        let (warm_out, warm) = metered(|| stage.apply_with(&backend, &ct).unwrap());
        let (steady_out, steady) = metered(|| stage.apply_with(&backend, &ct).unwrap());
        assert_eq!(warm_out.c0(), steady_out.c0(), "cache changed the result");
        cases.push(case(
            format!("warm BSGS stage ({shape})"),
            warm,
            formula(true),
        ));
        cases.push(case(
            format!("steady BSGS stage ({shape})"),
            steady,
            formula(false),
        ));
        cases.push(case(
            format!("warm-up minus steady state ({shape})"),
            warm.since(&steady),
            kernel::ntt_forward(degree).times((diagonals * limbs) as u64),
        ));
    }
    cases
}

//! Cost regression: what the substrate *actually charged* to the
//! thread's meter (`fab_rns::metering::tally`) must equal the operation's closed-form formula
//! in `fab_ckks::accounting` — NTT transforms and bytes moved, checked in one equality. This
//! is the verified-counters discipline (one counter against one known-answer formula, not
//! trusted timings). This file holds the key switch in both entry domains, `multiply_plain`
//! in both domains, the whole tally at 1, 2 and 4 workers, and the paper-scale closed forms
//! the README quotes. `ntt_accounting.rs` and `bytes_accounting.rs` check the transform and
//! byte halves of `multiply`, the constant ops and the Chebyshev leaf, rotations, the hoisted
//! batch and the BSGS stages over shared runs (`support/op_cases.rs`).
//!
//! The meter charges on the calling thread before any `fab_par` fan-out, so every tally is
//! invariant under `FAB_THREADS`; `tallies_and_results_are_invariant_under_thread_count`
//! pins that at 1, 2 and 4 workers.
//!
//! What the counted paths *compute* is pinned elsewhere, against from-the-definition
//! oracles: `crates/fab-ckks/tests/key_switch_lazy.rs` (key switch and `multiply`, bitwise)
//! and the `linear_transform.rs` unit tests (the eval-resident BSGS stage == its
//! coefficient-resident definition, bitwise).

#[path = "support/fixture.rs"]
mod fixture;

use fab::ckks::accounting::{self, Tally};
use fab::prelude::*;
use fixture::{banded, metered, Fixture, LEVEL};

#[test]
fn key_switch_matches_its_formula_in_both_entry_domains() {
    let mut f = Fixture::new(4040);
    let rlk = f.keygen.relinearization_key(&mut f.rng);
    let (degree, limbs, special, alpha) = f.shape();
    let basis = f.ctx.basis_at_level(LEVEL).unwrap();
    let d = fab::ckks::sampling::sample_uniform(&mut f.rng, &basis);

    // Coefficient entry: every digit row lifts and transforms.
    let (from_coeff, coeff) = metered(|| f.evaluator.key_switch(&d, &rlk.key, LEVEL).unwrap());
    assert_eq!(
        coeff,
        accounting::key_switch(degree, limbs, special, alpha),
        "key_switch drifted from its closed form"
    );

    // Dual-form entry: the same operand in evaluation form reuses its rows verbatim (exactly
    // `limbs` fewer forwards) and pays one batched inverse feeding the conversions instead —
    // bitwise-identical output.
    let mut d_eval = d.clone();
    d_eval.to_evaluation(&basis);
    let (from_eval, dual) = metered(|| f.evaluator.key_switch(&d_eval, &rlk.key, LEVEL).unwrap());
    assert_eq!(
        dual,
        accounting::key_switch_dual(degree, limbs, special, alpha),
        "dual-form key_switch drifted from its closed form"
    );
    assert_eq!(
        coeff.transforms.forward - dual.transforms.forward,
        limbs as u64,
        "dual-form seam must save exactly ℓ+1 forwards"
    );
    assert_eq!(
        from_eval, from_coeff,
        "dual-form key switch diverged bitwise"
    );
}

#[test]
fn multiply_plain_matches_its_formula_in_both_domains() {
    // Coefficient path: pt + both parts forward, both parts back. Evaluation path: the
    // domain tag skips the ciphertext round-trip entirely — only the plaintext transforms —
    // and converting the eval product back equals the coefficient product bitwise.
    let mut f = Fixture::new(505);
    let (degree, limbs, _, _) = f.shape();
    let ct = f.encrypt(16, LEVEL);
    let pt = f.encode(16, LEVEL);

    let (coeff_product, coeff) = metered(|| f.evaluator.multiply_plain(&ct, &pt).unwrap());
    assert_eq!(
        coeff,
        accounting::multiply_plain(degree, limbs),
        "coefficient multiply_plain drifted from its closed form"
    );

    let ct_eval = f.evaluator.to_evaluation_form(&ct).unwrap();
    let (eval_product, eval) = metered(|| f.evaluator.multiply_plain(&ct_eval, &pt).unwrap());
    assert_eq!(
        eval,
        accounting::multiply_plain_eval(degree, limbs),
        "eval-resident multiply_plain drifted from its closed form"
    );
    let back = f.evaluator.to_coefficient_form(&eval_product).unwrap();
    assert_eq!(back.c0(), coeff_product.c0());
    assert_eq!(back.c1(), coeff_product.c1());
}

#[test]
fn tallies_and_results_are_invariant_under_thread_count() {
    // A key switch, a multiply, a hoisted batch, a warm BSGS stage and a constant
    // accumulation, run at 1, 2 and 4 workers: the whole tally equals the sum of their
    // formulas every time, and every output is bitwise the same.
    let mut f = Fixture::new(999);
    let rlk = f.keygen.relinearization_key(&mut f.rng);
    let (degree, limbs, special, alpha) = f.shape();
    let basis = f.ctx.basis_at_level(LEVEL).unwrap();
    let d = fab::ckks::sampling::sample_uniform(&mut f.rng, &basis);
    let term = Ciphertext::from_parts(d.clone(), d.clone(), 1.0, LEVEL);
    let ct = f.encrypt(16, LEVEL);
    let slots = f.ctx.slot_count();
    let stage = || banded(slots, 0..3);
    let mut steps = stage().required_rotations();
    steps.extend([1, 2, 5]);
    let keys = f.keygen.galois_keys(&steps, false, &mut f.rng).unwrap();
    let ev = &f.evaluator;

    let shape = stage();
    let expected = accounting::key_switch(degree, limbs, special, alpha)
        + accounting::multiply(degree, limbs, special, alpha)
        + accounting::hoisted_rotation_batch(degree, limbs, special, alpha, 3)
        + accounting::bsgs_stage_eval(
            degree,
            limbs,
            special,
            alpha,
            shape.bsgs_plan(),
            shape.diagonal_count(),
            true,
        )
        + accounting::accumulate_const(degree, limbs);

    let mut outputs = Vec::new();
    let mut tallies = Vec::new();
    let previous = fab_par::threads();
    for workers in [1, 2, 4] {
        fab_par::set_threads(workers);
        // A fresh transform, so its first apply fills the diagonal cache at every count.
        let stage = stage();
        let (out, tally) = metered(|| {
            let switched = ev.key_switch(&d, &rlk.key, LEVEL).unwrap();
            let product = ev.multiply(&ct, &ct, &rlk).unwrap();
            let batch = ev.rotate_hoisted_batch(&ct, &[1, 0, 2, 5], &keys).unwrap();
            let staged = stage.apply_with(&ExecBackend::new(ev, &keys), &ct).unwrap();
            let mut acc = term.clone();
            ev.accumulate_const(&mut acc, &term, -3.0, 1.0).unwrap();
            (switched, product, batch, staged, acc)
        });
        tallies.push(tally);
        outputs.push(out);
    }
    fab_par::set_threads(previous);
    assert_eq!(
        tallies, [expected; 3],
        "metered tally drifted or varied with FAB_THREADS"
    );
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "an output varied with FAB_THREADS"
    );
}

#[test]
fn paper_scale_closed_forms_pin_the_readme_table() {
    // FAB's full-depth shape (Table 2): N = 2^16, 24 limbs of Q, 8 special limbs, alpha 8
    // (β = 3, R = 32). The README's per-op table quotes these numbers (bytes in MiB); a
    // change here means the closed forms moved and the README must move with them.
    let (degree, limbs, special, alpha) = (1usize << 16, 24, 8, 8);
    let row = |c: Tally| {
        let mib = (c.bytes.total() as f64 / (1024.0 * 1024.0)).round() as u64;
        (c.transforms.forward, c.transforms.inverse, mib)
    };
    assert_eq!(
        row(accounting::key_switch(degree, limbs, special, alpha)),
        (96, 64, 3500)
    );
    assert_eq!(
        row(accounting::multiply(degree, limbs, special, alpha)),
        (168, 88, 5384)
    );
    assert_eq!(
        row(accounting::multiply_rescale(degree, limbs, special, alpha)),
        (168, 88, 5395)
    );
    assert_eq!(
        row(accounting::hoisted_rotation_batch(
            degree, limbs, special, alpha, 1
        )),
        (96, 64, 3620)
    );
}

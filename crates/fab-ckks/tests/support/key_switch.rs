//! Test-support oracles for the hybrid key switch and the ciphertext multiplication, written
//! from the definitions over public API only: every ring product is an `O(N²)` schoolbook
//! negacyclic convolution in `u128`, every digit is raised and every sum lowered by a freshly
//! built plan's eager `apply`. No NTT multiplies anything, no row is lazy, nothing is
//! accumulated across digits before reduction, and no arena, cached plan or limb-mapped
//! kernel of the evaluator is touched — which is the point: production must reproduce these
//! bit for bit.
//!
//! The one transform here is data preparation: a switching key is stored in evaluation
//! form, so each key row is brought to coefficient form once with the public
//! `to_coefficient`. It cannot hide an error of the fast path: an inverse that disagreed
//! with the forward transform the fast path multiplies under would break the equality, not
//! cancel in it (`fab-math` pins that forward transform to direct evaluation on its own).

use fab_ckks::{Ciphertext, CkksContext, RelinearizationKey, SwitchingKey};
use fab_rns::ops::{ModDownPlan, ModUpPlan};
use fab_rns::{Representation, RnsPolynomial};

/// `a·b mod (X^N + 1, q)` by the definition: `c_k = Σ_{i+j=k} a_i·b_j − Σ_{i+j=k+N} a_i·b_j`.
pub fn schoolbook_negacyclic(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    let n = a.len();
    let q = q as u128;
    (0..n)
        .map(|k| {
            // Each product is reduced before it is added, so the sums stay far below 2^128.
            let term = |i: usize, j: usize| a[i] as u128 * b[j] as u128 % q;
            let plus: u128 = (0..=k).map(|i| term(i, k - i)).sum();
            let minus: u128 = (k + 1..n).map(|i| term(i, k + n - i)).sum();
            ((plus % q + q - minus % q) % q) as u64
        })
        .collect()
}

/// The textbook hybrid key switch of a coefficient-form `d` at `level`: per digit, slice the
/// digit's limbs, ModUp them to `Q_level ∪ P`, multiply by the digit's key pair row by row
/// (the level's live rows `[q_0 … q_level, p_0 … p_{k-1}]` picked out of the full-basis key),
/// add into the running sums mod each raised modulus; ModDown both sums.
pub fn oracle_key_switch(
    ctx: &CkksContext,
    d: &RnsPolynomial,
    key: &SwitchingKey,
    level: usize,
) -> (RnsPolynomial, RnsPolynomial) {
    let limbs = level + 1;
    let q_basis = ctx.basis_at_level(level).unwrap();
    let raised = ctx.raised_basis_at_level(level).unwrap();
    let total_q = ctx.q_basis().len();
    let key_rows: Vec<usize> = (0..limbs)
        .chain(total_q..total_q + ctx.p_basis().len())
        .collect();
    let zero = RnsPolynomial::zero(ctx.degree(), raised.len(), Representation::Coefficient);
    let mut sums = [zero.clone(), zero];
    for (j, start) in (0..limbs).step_by(key.alpha()).enumerate() {
        let len = key.alpha().min(limbs - start);
        let digit = d.slice_limbs(start..start + len).unwrap();
        let extended = ModUpPlan::new(&q_basis, ctx.p_basis(), start, len)
            .unwrap()
            .apply(&digit)
            .unwrap();
        let (b, a) = key.component(j);
        for (sum, key_poly) in sums.iter_mut().zip([b, a]) {
            let mut key_coeff = key_poly.clone();
            key_coeff.to_coefficient(ctx.full_basis());
            for (r, &row) in key_rows.iter().enumerate() {
                let q = raised.modulus(r).value();
                let product = schoolbook_negacyclic(extended.limb(r), key_coeff.limb(row), q);
                for (x, p) in sum.limb_mut(r).iter_mut().zip(product) {
                    *x = ((*x as u128 + p as u128) % q as u128) as u64;
                }
            }
        }
    }
    let down = ModDownPlan::new(&q_basis, ctx.p_basis()).unwrap();
    let [sum_b, sum_a] = sums;
    (down.apply(&sum_b).unwrap(), down.apply(&sum_a).unwrap())
}

/// The textbook multiplication with relinearisation of two coefficient-form ciphertexts at
/// one level: tensor `(d0, d1, d2) = (a0·b0, a0·b1 + a1·b0, a1·b1)` by schoolbook products,
/// key-switch `d2`, add: `(d0 + k0, d1 + k1)`.
pub fn oracle_multiply(
    ctx: &CkksContext,
    a: &Ciphertext,
    b: &Ciphertext,
    rlk: &RelinearizationKey,
) -> (RnsPolynomial, RnsPolynomial) {
    let level = a.level();
    let basis = ctx.basis_at_level(level).unwrap();
    let tensor = |x: &RnsPolynomial, y: &RnsPolynomial| {
        let rows = (0..=level)
            .map(|i| schoolbook_negacyclic(x.limb(i), y.limb(i), basis.modulus(i).value()))
            .collect();
        RnsPolynomial::from_limbs(rows, Representation::Coefficient)
    };
    let d0 = tensor(a.c0(), b.c0());
    let d1 = tensor(a.c0(), b.c1())
        .add(&tensor(a.c1(), b.c0()), &basis)
        .unwrap();
    let (k0, k1) = oracle_key_switch(ctx, &tensor(a.c1(), b.c1()), &rlk.key, level);
    (d0.add(&k0, &basis).unwrap(), d1.add(&k1, &basis).unwrap())
}

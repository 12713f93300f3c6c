//! Galois operations: rotation and conjugation, the key-switched automorphisms, all run by
//! one hoisted loop (`rotate` and `conjugate` are one-element batches of it), and the
//! key-free monomial shift.

use fab_math::{galois_element_for_conjugation, galois_element_for_rotation};
use fab_rns::{RnsBasis, RnsPolynomial};
use fab_trace::HeOp;

use super::Evaluator;
use crate::{Ciphertext, CkksError, KeyProvider, KeyRef, Result};

/// One key-switched automorphism of a batch: a left rotation of the slots by a step below
/// the slot count (0 is a free clone), or the complex conjugation.
#[derive(Clone, Copy)]
enum Galois {
    Rotate(usize),
    Conjugate,
}

impl Evaluator {
    /// Rotates the slots left by `steps` positions (`out[i] = in[i + steps mod n]`): a
    /// one-element [`Self::rotate_hoisted_batch`]. A rotation by a multiple of the slot count
    /// is a free clone and asks for no key.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] if `keys` has no Galois key for this rotation.
    pub fn rotate<K: KeyProvider + ?Sized>(
        &self,
        a: &Ciphertext,
        steps: usize,
        keys: &K,
    ) -> Result<Ciphertext> {
        Ok(self.rotate_hoisted_batch(a, &[steps], keys)?.remove(0))
    }

    /// Rotates one ciphertext by every step in `steps` while performing the key-switch
    /// Decomp → ModUp **and the forward NTTs once** for the whole batch (hoisting, Bossuat et
    /// al.): the raised digits of `c1` are computed and transformed up front, and each
    /// rotation only pays an evaluation-domain permutation (applied on the fly inside the
    /// KSKIP gather — see [`fab_math::EvalAutomorphismMap`]), the u128 inner product with its
    /// own key, and the inverse NTT + ModDown: a batch of `M` rotations performs
    /// `β·(ℓ+1+k) + M·2·(ℓ+1+k)` transforms where `M` single rotations perform
    /// `M·β·(ℓ+1+k) + M·2·(ℓ+1+k)`.
    ///
    /// The first step is recorded as a full [`HeOp::Rotate`], every further nonzero step as
    /// [`HeOp::RotateHoisted`], and steps that are multiples of the slot count are free
    /// clones. Each output is bitwise the [`Self::rotate`] by its step.
    ///
    /// Soundness of sharing: digit slicing commutes with the automorphism (it acts
    /// limb-wise), applying the automorphism to a ModUp output yields a valid lift of the
    /// automorphised digit (the permutation preserves both the congruence and the norm
    /// bound), and in evaluation representation the automorphism is exactly the
    /// `EvalAutomorphismMap` point permutation — so each rotation's key switch sees exactly
    /// the operand it requires.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] (or the provider's transport error) if any step's
    /// Galois key cannot be had; the shared raised digits go back to the arena either way.
    pub fn rotate_hoisted_batch<K: KeyProvider + ?Sized>(
        &self,
        a: &Ciphertext,
        steps: &[usize],
        keys: &K,
    ) -> Result<Vec<Ciphertext>> {
        let slots = self.ctx.slot_count();
        let batch: Vec<Galois> = steps.iter().map(|&s| Galois::Rotate(s % slots)).collect();
        self.galois_batch(a, &batch, keys)
    }

    /// Complex-conjugates every slot: a one-element batch of the hoisted loop, recorded as
    /// [`HeOp::Conjugate`].
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] if `keys` has no conjugation key.
    pub fn conjugate<K: KeyProvider + ?Sized>(
        &self,
        a: &Ciphertext,
        keys: &K,
    ) -> Result<Ciphertext> {
        Ok(self.galois_batch(a, &[Galois::Conjugate], keys)?.remove(0))
    }

    /// The one key-switched automorphism loop: Decomp → ModUp → forward NTT of `c1` once,
    /// then per element the evaluation-domain permutation inside the KSKIP gather, the key
    /// switch's back half, and `σ(c0) + k0`. Each element asks for its key when its turn
    /// comes, so a key cache holds one at a time.
    fn galois_batch<K: KeyProvider + ?Sized>(
        &self,
        a: &Ciphertext,
        batch: &[Galois],
        keys: &K,
    ) -> Result<Vec<Ciphertext>> {
        if batch.iter().all(|g| matches!(g, Galois::Rotate(0))) {
            return Ok(vec![a.clone(); batch.len()]);
        }
        let a = self.coefficient_input(a)?;
        let a = a.as_ref();
        let level = a.level;
        let q_basis = self.ctx.basis_at_level(level)?;

        let mut scratch = self.scratch();
        let sc = &mut *scratch;
        let raised = self.raise_digits(sc, &a.c1, level)?;
        let down = self.ctx.mod_down_plan(level)?;
        let mut rotated = false;
        let out = batch
            .iter()
            .map(|&g| {
                let (element, key, op) = match g {
                    Galois::Rotate(0) => return Ok(a.clone()),
                    Galois::Rotate(s) => {
                        let element = galois_element_for_rotation(self.ctx.degree(), s);
                        // The seam spells a missing key by its element; the step is added here.
                        let key = keys.key(KeyRef::Galois(element)).map_err(|e| match e {
                            CkksError::MissingKey { description } => CkksError::MissingKey {
                                description: format!("{description} (rotation by {s})"),
                            },
                            other => other,
                        })?;
                        let op = if std::mem::replace(&mut rotated, true) {
                            HeOp::RotateHoisted { level }
                        } else {
                            HeOp::Rotate { level }
                        };
                        (element, key, op)
                    }
                    Galois::Conjugate => {
                        let element = galois_element_for_conjugation(self.ctx.degree());
                        let key = keys.key(KeyRef::Galois(element))?;
                        (element, key, HeOp::Conjugate { level })
                    }
                };
                let eval_map = self.ctx.eval_automorphism_map(element)?;
                let (k0, k1) =
                    self.switch_raised(sc, &raised, &key, Some(&eval_map), None, &down)?;
                let map = self.ctx.automorphism_map(element)?;
                let mut c0 = a.c0.automorphism_with_map(&map, &q_basis)?;
                c0.add_assign(&k0, &q_basis)?;
                sc.recycle(k0);
                self.record(op);
                Ok(Ciphertext::from_parts(c0, k1, a.scale, level))
            })
            .collect();
        raised.recycle_into(sc);
        out
    }

    /// Multiplies the underlying polynomial by the monomial `X^power` (a negacyclic shift).
    /// In slot space this multiplies every slot by `ζ^{power·5^j}`; the most useful case is
    /// `power = N/2`, which multiplies every slot by the imaginary unit `i`. No key material or
    /// level is consumed.
    ///
    /// # Errors
    ///
    /// Propagates level errors.
    pub fn multiply_by_monomial(&self, a: &Ciphertext, power: usize) -> Result<Ciphertext> {
        let a = self.coefficient_input(a)?;
        let basis = self.ctx.basis_at_level(a.level)?;
        let c0 = multiply_poly_by_monomial(&a.c0, power, &basis);
        let c1 = multiply_poly_by_monomial(&a.c1, power, &basis);
        Ok(Ciphertext::from_parts(c0, c1, a.scale, a.level))
    }

    /// Multiplies every slot by the imaginary unit `i` (monomial `X^{N/2}`), for free.
    ///
    /// # Errors
    ///
    /// Propagates level errors.
    pub fn multiply_by_i(&self, a: &Ciphertext) -> Result<Ciphertext> {
        self.multiply_by_monomial(a, self.ctx.degree() / 2)
    }
}

/// Multiplies a coefficient-form polynomial by `X^power` in the negacyclic ring.
fn multiply_poly_by_monomial(
    poly: &RnsPolynomial,
    power: usize,
    basis: &RnsBasis,
) -> RnsPolynomial {
    let degree = poly.degree();
    let power = power % (2 * degree);
    let mut out = RnsPolynomial::zero(degree, poly.limb_count(), poly.representation());
    fab_par::par_chunks_mut(out.data_mut(), degree, |idx, row| {
        let m = basis.modulus(idx);
        for (i, &c) in poly.limb(idx).iter().enumerate() {
            let shifted = i + power;
            let wraps = (shifted / degree) % 2 == 1;
            let target = shifted % degree;
            row[target] = if wraps { m.neg(c) } else { c };
        }
    });
    out
}

//! Galois operations: rotation, conjugation and the hoisted rotation batch (an automorphism
//! followed by a key switch back to the original secret), and the key-free monomial shift.

use std::sync::Arc;

use fab_math::{galois_element_for_conjugation, galois_element_for_rotation};
use fab_rns::{RnsBasis, RnsPolynomial};
use fab_trace::HeOp;

use super::Evaluator;
use crate::{Ciphertext, CkksError, KeyProvider, KeyRef, Result, SwitchingKey};

impl Evaluator {
    /// Rotates the slots left by `steps` positions (`out[i] = in[i + steps mod n]`). A
    /// rotation by a multiple of the slot count is a free clone and asks for no key.
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
        let steps = steps % self.ctx.slot_count();
        if steps == 0 {
            return Ok(a.clone());
        }
        let (element, key) = self.rotation_key(keys, steps)?;
        let rotated = self.apply_galois(a, element, &key)?;
        self.record(HeOp::Rotate { level: a.level });
        Ok(rotated)
    }

    /// The Galois element of the rotation by `steps` and its key, asked for by name. The
    /// seam spells a missing key by its element; only this caller knows the step, and adds it.
    fn rotation_key<K: KeyProvider + ?Sized>(
        &self,
        keys: &K,
        steps: usize,
    ) -> Result<(u64, Arc<SwitchingKey>)> {
        let element = galois_element_for_rotation(self.ctx.degree(), steps);
        match keys.key(KeyRef::Galois(element)) {
            Ok(key) => Ok((element, key)),
            Err(CkksError::MissingKey { description }) => Err(CkksError::MissingKey {
                description: format!("{description} (rotation by {steps})"),
            }),
            Err(other) => Err(other),
        }
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
    /// clones, exactly like the per-op path.
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
        if steps.iter().all(|s| s % slots == 0) {
            return Ok(steps.iter().map(|_| a.clone()).collect());
        }
        let a = self.coefficient_input(a)?;
        let a = a.as_ref();
        let level = a.level;
        let q_basis = self.ctx.basis_at_level(level)?;

        let mut scratch = self.scratch();
        let sc = &mut *scratch;

        // Decomp + ModUp + forward NTT of c1, shared by every rotation in the batch.
        let raised = self.raise_digits(sc, &a.c1, level)?;
        let down = self.ctx.mod_down_plan(level)?;
        let mut out = Vec::with_capacity(steps.len());
        let mut first = true;
        for &s in steps {
            let st = s % slots;
            if st == 0 {
                out.push(a.clone());
                continue;
            }
            let (element, key) = match self.rotation_key(keys, st) {
                Ok(found) => found,
                Err(e) => {
                    raised.recycle_into(sc);
                    return Err(e);
                }
            };
            let eval_map = self.ctx.eval_automorphism_map(element)?;
            let (k0, k1) = self.switch_raised(sc, &raised, &key, Some(&eval_map), None, &down)?;
            let map = self.ctx.automorphism_map(element)?;
            let mut c0 = a.c0.automorphism_with_map(&map, &q_basis)?;
            c0.add_assign(&k0, &q_basis)?;
            sc.recycle(k0);
            let rotated = Ciphertext::from_parts(c0, k1, a.scale, level);
            self.record(if first {
                HeOp::Rotate { level }
            } else {
                HeOp::RotateHoisted { level }
            });
            first = false;
            out.push(rotated);
        }
        raised.recycle_into(sc);
        Ok(out)
    }

    /// Complex-conjugates every slot.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] if `keys` has no conjugation key.
    pub fn conjugate<K: KeyProvider + ?Sized>(
        &self,
        a: &Ciphertext,
        keys: &K,
    ) -> Result<Ciphertext> {
        let element = galois_element_for_conjugation(self.ctx.degree());
        let key = keys.key(KeyRef::Galois(element))?;
        let conjugated = self.apply_galois(a, element, &key)?;
        self.record(HeOp::Conjugate { level: a.level });
        Ok(conjugated)
    }

    /// Applies the Galois automorphism `x → x^element` followed by the key switch back to the
    /// original secret.
    ///
    /// # Errors
    ///
    /// Propagates automorphism and key-switch errors.
    pub fn apply_galois(
        &self,
        a: &Ciphertext,
        element: u64,
        key: &SwitchingKey,
    ) -> Result<Ciphertext> {
        let a = self.coefficient_input(a)?;
        let a = a.as_ref();
        let basis = self.ctx.basis_at_level(a.level)?;
        let map = self.ctx.automorphism_map(element)?;
        let mut c0 = a.c0.automorphism_with_map(&map, &basis)?;
        let c1 = a.c1.automorphism_with_map(&map, &basis)?;
        let (k0, k1) = self.key_switch(&c1, key, a.level)?;
        c0.add_assign(&k0, &basis)?;
        self.scratch().recycle(k0);
        Ok(Ciphertext::from_parts(c0, k1, a.scale, a.level))
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

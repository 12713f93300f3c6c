//! Operations against plaintexts and constants: encoded plaintext polynomials pay transforms,
//! real constants are per-limb scalars and pay none.

use std::borrow::Cow;

use fab_math::Complex64;
use fab_rns::RnsPolynomial;
use fab_trace::HeOp;

use super::{check_scales, Evaluator};
use crate::encoding::constant_residues;
use crate::{Ciphertext, CkksError, Plaintext, Result};

impl Evaluator {
    /// Adds an encoded plaintext to a ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::ScaleMismatch`] / [`CkksError::LevelMismatch`] on shape problems.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext> {
        check_scales(a.scale, pt.scale)?;
        if pt.level < a.level {
            return Err(CkksError::LevelMismatch {
                left: a.level,
                right: pt.level,
            });
        }
        self.record(HeOp::Add { level: a.level });
        let basis = self.ctx.basis_at_level(a.level)?;
        let mut pt_poly = pt.poly.prefix(a.level + 1)?;
        if a.c0.is_evaluation() {
            pt_poly.to_evaluation(&basis);
        }
        Ok(Ciphertext::from_parts(
            a.c0.add(&pt_poly, &basis)?,
            a.c1.clone(),
            a.scale,
            a.level,
        ))
    }

    /// Adds the same complex constant to every slot. A real constant is added as its per-limb
    /// residue directly (coefficient 0 in coefficient form, every element in evaluation
    /// form): no plaintext polynomial, no transforms in either domain.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    pub fn add_scalar(&self, a: &Ciphertext, scalar: Complex64) -> Result<Ciphertext> {
        if scalar.im != 0.0 {
            let pt = self.encoder.encode_constant(scalar, a.scale, a.level)?;
            return self.add_plain(a, &pt);
        }
        let basis = self.ctx.basis_at_level(a.level)?;
        let residues = constant_residues(scalar.re, a.scale, &basis)?;
        self.record(HeOp::Add { level: a.level });
        let mut c0 = a.c0.clone();
        c0.add_scalar_per_limb(&residues, &basis);
        Ok(Ciphertext::from_parts(c0, a.c1.clone(), a.scale, a.level))
    }

    /// Plaintext multiplication (no rescale). The result scale is the product of scales.
    ///
    /// **Domain-preserving**: a coefficient-form ciphertext is transformed, multiplied and
    /// transformed back ([`crate::accounting::multiply_plain`]); an **evaluation-form**
    /// ciphertext skips both the forward and the final inverse round-trip — only the
    /// plaintext pays its `ℓ+1` forwards — and the result stays in evaluation form for the
    /// caller's next eval-resident step ([`crate::accounting::multiply_plain_eval`]).
    /// Callers holding a pre-transformed plaintext can drop even those forwards via
    /// [`Evaluator::multiply_plain_ntt`].
    ///
    /// # Errors
    ///
    /// Returns level errors if the plaintext holds fewer limbs than the ciphertext.
    pub fn multiply_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext> {
        if pt.level < a.level {
            return Err(CkksError::LevelMismatch {
                left: a.level,
                right: pt.level,
            });
        }
        self.record(HeOp::MultiplyPlain { level: a.level });
        let basis = self.ctx.basis_at_level(a.level)?;
        let eval_resident = a.c0.is_evaluation();
        let mut scratch = self.scratch();
        let sc = &mut *scratch;
        let mut p = sc.lease_prefix(&pt.poly, a.level + 1)?;
        p.to_evaluation(&basis);
        // r0/r1 escape into the returned ciphertext; everything else is recycled.
        let mut r0 = sc.lease_copy(&a.c0);
        let mut r1 = sc.lease_copy(&a.c1);
        r0.to_evaluation(&basis);
        r1.to_evaluation(&basis);
        r0.mul_assign(&p, &basis)?;
        r1.mul_assign(&p, &basis)?;
        if !eval_resident {
            r0.to_coefficient(&basis);
            r1.to_coefficient(&basis);
        }
        sc.recycle(p);
        Ok(Ciphertext::from_parts(r0, r1, a.scale * pt.scale, a.level))
    }

    /// Plaintext multiplication against an **NTT-cached plaintext polynomial** (evaluation
    /// form over `Q_level`, `ℓ+1` limbs, encoded at `pt_scale`): the zero-transform inner
    /// step of the eval-resident BSGS accumulation. The ciphertext is promoted to evaluation
    /// form if it is not already (a warm eval-resident pipeline passes it in evaluation form
    /// and the operation performs **no transforms at all**); the result is evaluation-form.
    ///
    /// Semantically identical to encoding the same values at `pt_scale` and calling
    /// [`Evaluator::multiply_plain`] — same recorded op, same scale/level bookkeeping, and
    /// bitwise-identical once converted to coefficient form.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidInput`] unless the plaintext polynomial is evaluation-form
    /// with exactly the ciphertext's limbs.
    pub fn multiply_plain_ntt(
        &self,
        a: &Ciphertext,
        pt_poly: &RnsPolynomial,
        pt_scale: f64,
    ) -> Result<Ciphertext> {
        if !pt_poly.is_evaluation() || pt_poly.limb_count() != a.level + 1 {
            return Err(CkksError::InvalidInput {
                reason: format!(
                    "multiply_plain_ntt needs an evaluation-form plaintext with {} limbs, got {} in {} form",
                    a.level + 1,
                    pt_poly.limb_count(),
                    pt_poly.representation()
                ),
            });
        }
        self.record(HeOp::MultiplyPlain { level: a.level });
        let basis = self.ctx.basis_at_level(a.level)?;
        let mut scratch = self.scratch();
        let sc = &mut *scratch;
        let mut r0 = sc.lease_copy(&a.c0);
        let mut r1 = sc.lease_copy(&a.c1);
        r0.to_evaluation(&basis);
        r1.to_evaluation(&basis);
        r0.mul_assign(pt_poly, &basis)?;
        r1.mul_assign(pt_poly, &basis)?;
        Ok(Ciphertext::from_parts(r0, r1, a.scale * pt_scale, a.level))
    }

    /// Multiplies every slot by the constant `value` encoded at `pt_scale` (no rescale). The
    /// result scale is the product of scales, the recorded op a [`HeOp::MultiplyPlain`].
    ///
    /// A **real** constant is a per-limb scalar: both parts are multiplied by
    /// `round(value·pt_scale) mod q_i` in whatever domain `a` is in (constant × polynomial is
    /// coefficient-wise in either form), so the operation performs no transforms and builds
    /// no plaintext polynomial. Bit-for-bit what [`crate::Encoder::encode_constant`] +
    /// [`Self::multiply_plain`] produce, which is the route a constant with a non-zero
    /// imaginary part still takes.
    ///
    /// # Errors
    ///
    /// The errors of [`crate::Encoder::encode_constant`]: [`CkksError::InvalidInput`] for a scale
    /// that is not positive and finite or a scaled constant beyond the 62-bit range.
    pub fn multiply_const(
        &self,
        a: &Ciphertext,
        value: Complex64,
        pt_scale: f64,
    ) -> Result<Ciphertext> {
        if value.im != 0.0 {
            let pt = self.encoder.encode_constant(value, pt_scale, a.level)?;
            return self.multiply_plain(a, &pt);
        }
        let basis = self.ctx.basis_at_level(a.level)?;
        let residues = constant_residues(value.re, pt_scale, &basis)?;
        self.record(HeOp::MultiplyPlain { level: a.level });
        Ok(Ciphertext::from_parts(
            a.c0.mul_scalar_per_limb(&residues, &basis),
            a.c1.mul_scalar_per_limb(&residues, &basis),
            a.scale * pt_scale,
            a.level,
        ))
    }

    /// Fused `acc += value·term` for a real constant encoded at `pt_scale`: one in-place
    /// multiply-accumulate pass per part at `acc`'s level and in `acc`'s domain, reading the
    /// matching limb prefix of a `term` held at that level or above. Records the
    /// [`HeOp::MultiplyPlain`] and [`HeOp::Add`] the unfused pair would; `acc` keeps its
    /// scale, as the left operand of [`Self::add`] does.
    ///
    /// # Errors
    ///
    /// The validation errors of [`Self::multiply_const`]; [`CkksError::LevelMismatch`] if
    /// `term` is below `acc`'s level; [`CkksError::ScaleMismatch`] unless
    /// `term.scale·pt_scale` matches `acc`'s scale within the addition tolerance.
    pub fn accumulate_const(
        &self,
        acc: &mut Ciphertext,
        term: &Ciphertext,
        value: f64,
        pt_scale: f64,
    ) -> Result<()> {
        if term.level < acc.level {
            return Err(CkksError::LevelMismatch {
                left: acc.level,
                right: term.level,
            });
        }
        let basis = self.ctx.basis_at_level(acc.level)?;
        let residues = constant_residues(value, pt_scale, &basis)?;
        check_scales(acc.scale, term.scale * pt_scale)?;
        let term = self.match_form(acc, Cow::Borrowed(term))?;
        self.record(HeOp::MultiplyPlain { level: acc.level });
        self.record(HeOp::Add { level: acc.level });
        acc.c0
            .add_mul_scalar_per_limb(&term.c0, &residues, &basis)?;
        acc.c1
            .add_mul_scalar_per_limb(&term.c1, &residues, &basis)?;
        Ok(())
    }
}

//! Ciphertext–ciphertext multiplication: one pipeline, entered with the plain or the fused
//! ModDown+rescale plan.

use fab_rns::{RnsBasis, RnsPolynomial};
use fab_trace::HeOp;

use super::scratch::Scratch;
use super::Evaluator;
use crate::{Ciphertext, RelinearizationKey, Result};

impl Evaluator {
    /// Ciphertext–ciphertext multiplication with relinearisation (no rescale). The result
    /// scale is the product of the operand scales; the result is in coefficient form.
    ///
    /// Runs the **domain-aware dual-form pipeline**: the tensor products `d0`/`d1`/`d2` stay
    /// in evaluation form, `d2` enters the key switch through the dual-form seam (its rows
    /// are reused as the digits' own raised rows, so they never round-trip through
    /// coefficient form), and `P·d0`/`P·d1` are absorbed into the KSKIP accumulators *before*
    /// the accumulator inverse, so ModDown directly emits `d_i + k_i`. Operands already in
    /// evaluation form skip their forward transforms too.
    ///
    /// # Errors
    ///
    /// Propagates level and key errors.
    pub fn multiply(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &RelinearizationKey,
    ) -> Result<Ciphertext> {
        let (a, b) = self.align_levels(a, b)?;
        self.multiply_aligned(&a, &b, rlk, false)
    }

    /// The one multiplication pipeline, on operands already at a common level: tensor in
    /// evaluation form, dual-form raise of `d2`, then the shared key-switch back half with
    /// `P·d0`/`P·d1` absorbed. `fuse_rescale` hands the back half the fused ModDown+rescale
    /// plan instead of the plain ModDown — dividing by `P·q_level` in **one** basis
    /// conversion is also the rescale, so that entry records `Rescale` after `Multiply` and
    /// returns one level lower at the divided scale. Everything else is shared.
    fn multiply_aligned(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &RelinearizationKey,
        fuse_rescale: bool,
    ) -> Result<Ciphertext> {
        let level = a.level;
        self.record(HeOp::Multiply { level });
        let (down, scale, out_level) = if fuse_rescale {
            self.record(HeOp::Rescale { level });
            let prime = self.ctx.rescale_prime(level) as f64;
            (
                self.ctx.mod_down_rescale_plan(level)?,
                a.scale * b.scale / prime,
                level - 1,
            )
        } else {
            (self.ctx.mod_down_plan(level)?, a.scale * b.scale, level)
        };
        let basis = self.ctx.basis_at_level(level)?;

        let mut scratch = self.scratch();
        let sc = &mut *scratch;
        let (d0, d1, d2) = self.tensor_eval_with(sc, a, b, &basis)?;
        let raised = self.raise_digits(sc, &d2, level)?;
        // ModDown(acc + P·d) = d + ModDown(acc): the output parts come out in one pass.
        let (c0, c1) = self.switch_raised(sc, &raised, &rlk.key, None, Some((&d0, &d1)), &down)?;
        raised.recycle_into(sc);
        sc.recycle(d0);
        sc.recycle(d1);
        sc.recycle(d2);
        Ok(Ciphertext::from_parts(c0, c1, scale, out_level))
    }

    /// The tensor + relinearisation front half of a ciphertext multiplication: returns
    /// `(d0, d1, d2)` in **evaluation** form over `basis`, all leased from the arena.
    /// Operands already in evaluation form skip their forward transforms (`to_evaluation`
    /// no-ops on the domain tag).
    fn tensor_eval_with(
        &self,
        sc: &mut Scratch,
        a: &Ciphertext,
        b: &Ciphertext,
        basis: &RnsBasis,
    ) -> Result<(RnsPolynomial, RnsPolynomial, RnsPolynomial)> {
        let mut a0 = sc.lease_copy(&a.c0);
        let mut a1 = sc.lease_copy(&a.c1);
        let mut b0 = sc.lease_copy(&b.c0);
        let mut b1 = sc.lease_copy(&b.c1);
        a0.to_evaluation(basis);
        a1.to_evaluation(basis);
        b0.to_evaluation(basis);
        b1.to_evaluation(basis);

        let mut d0 = sc.lease_copy(&a0);
        d0.mul_assign(&b0, basis)?;
        let mut d1 = sc.lease_copy(&a0);
        d1.mul_assign(&b1, basis)?;
        d1.add_mul_assign(&a1, &b0, basis)?;
        let mut d2 = sc.lease_copy(&a1);
        d2.mul_assign(&b1, basis)?;
        sc.recycle(a0);
        sc.recycle(a1);
        sc.recycle(b0);
        sc.recycle(b1);
        Ok((d0, d1, d2))
    }

    /// Ciphertext–ciphertext multiplication followed by a rescale — the common
    /// Chebyshev/BSGS pattern, executed with the **fused ModDown+rescale** plan: the
    /// key-switch accumulator absorbs `P·d` and is divided by `P·q_level` in **one** basis
    /// conversion (`CkksContext::mod_down_rescale_plan`) instead of a ModDown followed by a
    /// separate rescale pass. Level, scale and the emitted trace ops (`Multiply`, `Rescale`)
    /// are identical to the two-step path; only the ~`k+2`-unit rounding (vs ~`k`) differs,
    /// which is negligible against the scale.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CkksError::LevelExhausted`] if no level remains for the rescale.
    pub fn multiply_rescale(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &RelinearizationKey,
    ) -> Result<Ciphertext> {
        let (a, b) = self.align_levels(a, b)?;
        if a.level == 0 {
            // Match the two-step path's error exactly: the multiply succeeds, the rescale
            // reports exhaustion.
            let product = self.multiply_aligned(&a, &b, rlk, false)?;
            return self.rescale(&product);
        }
        self.multiply_aligned(&a, &b, rlk, true)
    }
}

//! The execute/plan seam: one control flow, two interpreters.
//!
//! Higher-level pipelines (linear transforms, Chebyshev evaluation, bootstrapping, encrypted
//! training) are written once against [`EvalBackend`] and run under two interpreters:
//!
//! * [`ExecBackend`] executes on real [`Ciphertext`]s via the (sink-instrumented)
//!   [`Evaluator`], asking one [`KeyProvider`] for each switching key at the moment of use,
//!   so a `fab_trace::RecordingSink` observes the true operation stream and the provider
//!   the true key stream;
//! * [`PlanBackend`] executes on *shadow* ciphertexts carrying only `(level, scale)` and
//!   appends the operations it would have performed to an [`OpTrace`], and the [`KeyRef`]
//!   of every key switch to a key stream — producing the **analytic** trace and key sequence
//!   of the same pipeline without any polynomial arithmetic.
//!
//! Both interpreters implement the *primitives* with the evaluator's exact level/scale
//! bookkeeping and validation. The scale-management composites (`multiply_scalar`,
//! `match_scale`, `align_for_addition`, `align_exact`) hold the only data-dependent branches
//! of that bookkeeping, where a scale mismatch spends an extra `MultiplyPlain` + `Rescale`;
//! they are the only provided methods of [`EvalBackend`], written once over the primitives,
//! and neither interpreter overrides one.
//! So a recorded execution and a plan of the same pipeline agree op-for-op, and the keys a
//! provider is asked for equal the planned key stream. The tests here check that method by
//! method, the pipelines' equivalence tests end to end; together they keep the accelerator
//! model's workloads, and a prefetcher's schedule, true to what the scheme executes.

use std::cell::RefCell;
use std::sync::Arc;

use fab_math::{galois_element_for_conjugation, galois_element_for_rotation, Complex64};
use fab_trace::{HeOp, OpTrace};

use crate::encoding::{check_slot_values, scaled_constant};
use crate::evaluator::{check_scales, scales_match};
use crate::{
    Ciphertext, CkksContext, CkksError, Evaluator, KeyProvider, KeyRef, LinearTransform,
    RelinearizationKey, Result,
};

/// The operations a backend must interpret; mirrors the semantic surface of [`Evaluator`].
///
/// Implementations keep the level/scale bookkeeping of the primitives *identical* to the
/// evaluator's, so that planned and executed traces agree op-for-op. The scale-management
/// composites (`multiply_scalar`, `match_scale`, `align_for_addition`, `align_exact`) are
/// written once here, over the primitives; they are the only provided methods and are not
/// overridden.
pub trait EvalBackend {
    /// The ciphertext representation this backend computes on.
    type Ct: Clone;

    /// The scheme context.
    fn ctx(&self) -> &Arc<CkksContext>;

    /// Current level of a ciphertext.
    fn level(&self, ct: &Self::Ct) -> usize;

    /// Current scale of a ciphertext.
    fn scale(&self, ct: &Self::Ct) -> f64;

    /// Declares `ct`'s scale as `scale` without touching its data or recording an op:
    /// [`Self::match_scale`] states its exact target after the rounding of its constant.
    fn set_scale(&self, ct: &mut Self::Ct, scale: f64);

    /// Marks the start of a named phase in the emitted trace.
    fn begin_phase(&self, label: &str);

    /// Homomorphic addition (operands aligned to the lower level).
    fn add(&self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct>;

    /// Homomorphic subtraction.
    fn sub(&self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct>;

    /// Adds a constant to every slot.
    fn add_scalar(&self, a: &Self::Ct, scalar: Complex64) -> Result<Self::Ct>;

    /// Multiplies every slot by a constant encoded at the current rescaling prime, then
    /// rescales (scale-preserving, one level). Fails at level 0 and on a constant
    /// [`Self::multiply_const`] refuses.
    fn multiply_scalar(&self, a: &Self::Ct, scalar: Complex64) -> Result<Self::Ct> {
        let level = self.level(a);
        if level == 0 {
            return Err(CkksError::LevelExhausted {
                operation: "multiply_scalar",
            });
        }
        let prime = self.ctx().rescale_prime(level) as f64;
        self.rescale(&self.multiply_const(a, scalar, prime)?)
    }

    /// Ciphertext–ciphertext multiplication with relinearisation and rescale.
    fn multiply_rescale(&self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct>;

    /// Multiplies by a constant encoded at `pt_scale` (no rescale).
    fn multiply_const(&self, a: &Self::Ct, value: Complex64, pt_scale: f64) -> Result<Self::Ct>;

    /// Fused `acc += value·term` for a real constant encoded at `pt_scale`, in place at
    /// `acc`'s level (`term` may sit higher); emits the `MultiplyPlain` + `Add` pair of the
    /// unfused sequence. `acc` keeps its scale, which `term.scale·pt_scale` must match
    /// within the addition tolerance.
    fn accumulate_const(
        &self,
        acc: &mut Self::Ct,
        term: &Self::Ct,
        value: f64,
        pt_scale: f64,
    ) -> Result<()>;

    /// Multiplies by the diagonal at plan position `index` of `lt`'s BSGS plan, pre-rotated
    /// by `-giant` and encoded at the level's rescale prime (no rescale): the inner step of
    /// [`LinearTransform::apply_with`]. [`ExecBackend`] multiplies by the transform's
    /// NTT-cached plaintext; [`PlanBackend`] records one `MultiplyPlain` and reads no value.
    ///
    /// # Errors
    ///
    /// Fails at level 0, for a transform over another slot count, and for an `index` past
    /// the plan.
    fn multiply_diagonal(
        &self,
        lt: &LinearTransform,
        index: usize,
        a: &Self::Ct,
    ) -> Result<Self::Ct>;

    /// Multiplies by a real slot-vector plaintext encoded at `pt_scale` (no rescale).
    fn multiply_real_slots(&self, a: &Self::Ct, values: &[f64], pt_scale: f64) -> Result<Self::Ct>;

    /// Rescale by the current prime.
    fn rescale(&self, a: &Self::Ct) -> Result<Self::Ct>;

    /// Drops to a lower level without rescaling.
    fn mod_drop_to_level(&self, a: &Self::Ct, level: usize) -> Result<Self::Ct>;

    /// Brings a ciphertext exactly to `target_scale`. Within the addition tolerance the scale
    /// is only relabelled; otherwise the constant `1` is multiplied in at
    /// `round(target·q_level / scale)` and rescaled away, spending one level; that fails at
    /// level 0, when the constant rounds below 1, or when [`Self::multiply_const`] refuses it.
    fn match_scale(&self, a: &Self::Ct, target_scale: f64) -> Result<Self::Ct> {
        if scales_match(self.scale(a), target_scale) {
            let mut out = a.clone();
            self.set_scale(&mut out, target_scale);
            return Ok(out);
        }
        if self.level(a) == 0 {
            return Err(CkksError::LevelExhausted {
                operation: "match_scale",
            });
        }
        rescale_to(self, a, target_scale)
    }

    /// Brings two ciphertexts to a common level and scale: both drop to the lower level, and
    /// when the scales differ the larger is matched down to the smaller with
    /// [`Self::match_scale`] (one level on that side) and both drop to the common level again.
    fn align_for_addition(&self, a: &Self::Ct, b: &Self::Ct) -> Result<(Self::Ct, Self::Ct)> {
        let level = self.level(a).min(self.level(b));
        let mut a = self.mod_drop_to_level(a, level)?;
        let mut b = self.mod_drop_to_level(b, level)?;
        let (scale_a, scale_b) = (self.scale(&a), self.scale(&b));
        if !scales_match(scale_a, scale_b) {
            if scale_a > scale_b {
                a = self.match_scale(&a, scale_b)?;
            } else {
                b = self.match_scale(&b, scale_a)?;
            }
            let level = self.level(&a).min(self.level(&b));
            a = self.mod_drop_to_level(&a, level)?;
            b = self.mod_drop_to_level(&b, level)?;
        }
        Ok((a, b))
    }

    /// Brings two ciphertexts to one level and bit-identical scales without relabelling a
    /// scale that differs: the operand at the higher level is dropped to one level above the
    /// other and brought to the other's scale exactly (the constant `1` multiplied in at
    /// `round(target·q / scale)` and rescaled away), which spends a level it has to spare,
    /// not one of the result. Operands whose scales are already equal are only dropped; at
    /// equal levels this is [`Self::align_for_addition`].
    fn align_exact(&self, a: &Self::Ct, b: &Self::Ct) -> Result<(Self::Ct, Self::Ct)> {
        let (level_a, level_b) = (self.level(a), self.level(b));
        let lower = level_a.min(level_b);
        let to_lower = |high: &Self::Ct, low: &Self::Ct| -> Result<Self::Ct> {
            let target = self.scale(low);
            if self.scale(high) == target {
                return self.mod_drop_to_level(high, lower);
            }
            rescale_to(self, &self.mod_drop_to_level(high, lower + 1)?, target)
        };
        match level_a.cmp(&level_b) {
            std::cmp::Ordering::Equal => self.align_for_addition(a, b),
            std::cmp::Ordering::Greater => Ok((to_lower(a, b)?, b.clone())),
            std::cmp::Ordering::Less => Ok((a.clone(), to_lower(b, a)?)),
        }
    }

    /// One rotation ([`HeOp::Rotate`]; a free, unrecorded clone at a multiple of the slot
    /// count). The evaluator runs it as a hoisted batch of one, so it pays its own key-switch
    /// decomposition.
    fn rotate(&self, a: &Self::Ct, steps: usize) -> Result<Self::Ct>;

    /// Rotates one ciphertext by every step in `steps`, sharing a single key-switch
    /// decomposition across the batch (hoisting, Bossuat et al.): the first nonzero step is a
    /// full rotation ([`HeOp::Rotate`]), every further nonzero step a hoisted one
    /// ([`HeOp::RotateHoisted`]), and steps that are multiples of the slot count are free
    /// clones. Hoisting exists only here, where a decomposition is really shared:
    /// [`ExecBackend`] runs the evaluator's shared Decomp→ModUp and returns the batch in
    /// evaluation form, each output promoted once for the BSGS products that consume it;
    /// [`PlanBackend`] emits the *identical* op stream — which is what keeps recorded
    /// executions and planned traces in op-for-op agreement.
    ///
    /// # Errors
    ///
    /// Same as [`Self::rotate`].
    fn rotate_batch_hoisted(&self, a: &Self::Ct, steps: &[usize]) -> Result<Vec<Self::Ct>>;

    /// Conjugation.
    fn conjugate(&self, a: &Self::Ct) -> Result<Self::Ct>;

    /// Multiplication by the monomial `X^power` (free on FAB; no trace op).
    fn multiply_by_monomial(&self, a: &Self::Ct, power: usize) -> Result<Self::Ct>;
}

/// The level-spending step of [`EvalBackend::match_scale`] and [`EvalBackend::align_exact`]:
/// `a` times the constant `1` encoded at `round(target·q_level / scale)`, rescaled, then
/// declared at `target`. The achieved scale differs from it only by the rounding of that
/// constant (a relative error of at most `0.5 / enc_scale`). Fails when the constant rounds
/// below 1 or [`EvalBackend::multiply_const`] refuses it; `a` must sit above level 0.
fn rescale_to<B: EvalBackend + ?Sized>(backend: &B, a: &B::Ct, target: f64) -> Result<B::Ct> {
    let (level, scale) = (backend.level(a), backend.scale(a));
    let prime = backend.ctx().rescale_prime(level) as f64;
    let enc_scale = (target * prime / scale).round();
    if enc_scale < 1.0 {
        return Err(CkksError::InvalidInput {
            reason: format!("cannot match scale {target:e} from {scale:e} at level {level}"),
        });
    }
    let mut out = backend.rescale(&backend.multiply_const(a, Complex64::one(), enc_scale)?)?;
    backend.set_scale(&mut out, target);
    Ok(out)
}

// --------------------------------------------------------------------------- exec interpreter

/// Executes backend operations on real ciphertexts through an [`Evaluator`] (whose sink then
/// observes the operation stream), asking `keys` for each switching key at the moment of use.
#[derive(Clone, Copy)]
pub struct ExecBackend<'a> {
    evaluator: &'a Evaluator,
    keys: &'a dyn KeyProvider,
}

impl<'a> ExecBackend<'a> {
    /// A backend executing on `evaluator` with the keys `keys` can provide.
    pub fn new(evaluator: &'a Evaluator, keys: &'a dyn KeyProvider) -> Self {
        Self { evaluator, keys }
    }
}

impl EvalBackend for ExecBackend<'_> {
    type Ct = Ciphertext;

    fn ctx(&self) -> &Arc<CkksContext> {
        self.evaluator.context()
    }

    fn level(&self, ct: &Ciphertext) -> usize {
        ct.level()
    }

    fn scale(&self, ct: &Ciphertext) -> f64 {
        ct.scale()
    }

    fn set_scale(&self, ct: &mut Ciphertext, scale: f64) {
        ct.scale = scale;
    }

    fn begin_phase(&self, label: &str) {
        if self.evaluator.sink().is_enabled() {
            self.evaluator.sink().begin_phase(label);
        }
    }

    fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        self.evaluator.add(a, b)
    }

    fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        self.evaluator.sub(a, b)
    }

    fn add_scalar(&self, a: &Ciphertext, scalar: Complex64) -> Result<Ciphertext> {
        self.evaluator.add_scalar(a, scalar)
    }

    fn multiply_rescale(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        let rlk = RelinearizationKey {
            key: self.keys.key(KeyRef::Relin)?,
        };
        self.evaluator.multiply_rescale(a, b, &rlk)
    }

    fn multiply_const(
        &self,
        a: &Ciphertext,
        value: Complex64,
        pt_scale: f64,
    ) -> Result<Ciphertext> {
        self.evaluator.multiply_const(a, value, pt_scale)
    }

    fn accumulate_const(
        &self,
        acc: &mut Ciphertext,
        term: &Ciphertext,
        value: f64,
        pt_scale: f64,
    ) -> Result<()> {
        self.evaluator.accumulate_const(acc, term, value, pt_scale)
    }

    fn multiply_real_slots(
        &self,
        a: &Ciphertext,
        values: &[f64],
        pt_scale: f64,
    ) -> Result<Ciphertext> {
        let pt = self
            .evaluator
            .encoder()
            .encode_real(values, pt_scale, a.level())?;
        self.evaluator.multiply_plain(a, &pt)
    }

    fn rescale(&self, a: &Ciphertext) -> Result<Ciphertext> {
        self.evaluator.rescale(a)
    }

    fn mod_drop_to_level(&self, a: &Ciphertext, level: usize) -> Result<Ciphertext> {
        self.evaluator.mod_drop_to_level(a, level)
    }

    fn rotate(&self, a: &Ciphertext, steps: usize) -> Result<Ciphertext> {
        self.evaluator.rotate(a, steps, self.keys)
    }

    fn multiply_diagonal(
        &self,
        lt: &LinearTransform,
        index: usize,
        a: &Ciphertext,
    ) -> Result<Ciphertext> {
        let prime = lt.diagonal_scale(self.ctx(), a.level(), index)?;
        let cached = lt.ntt_diagonal_cache(self.evaluator, a.level(), prime)?;
        self.evaluator.multiply_plain_ntt(a, &cached[index], prime)
    }

    fn rotate_batch_hoisted(&self, a: &Ciphertext, steps: &[usize]) -> Result<Vec<Ciphertext>> {
        self.evaluator
            .rotate_hoisted_batch(a, steps, self.keys)?
            .iter()
            .map(|rotated| self.evaluator.to_evaluation_form(rotated))
            .collect()
    }

    fn conjugate(&self, a: &Ciphertext) -> Result<Ciphertext> {
        self.evaluator.conjugate(a, self.keys)
    }

    fn multiply_by_monomial(&self, a: &Ciphertext, power: usize) -> Result<Ciphertext> {
        self.evaluator.multiply_by_monomial(a, power)
    }
}

// --------------------------------------------------------------------------- plan interpreter

/// A shadow ciphertext: just the cost-relevant state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCiphertext {
    /// Current level.
    pub level: usize,
    /// Current scale.
    pub scale: f64,
}

impl PlanCiphertext {
    /// A shadow ciphertext at the given level and scale.
    pub fn new(level: usize, scale: f64) -> Self {
        Self { level, scale }
    }
}

/// Interprets backend operations on shadow ciphertexts, appending the ops that a real
/// execution would perform to an [`OpTrace`] and the keys it would ask its
/// [`KeyProvider`] for, in order, to a key stream.
///
/// It refuses what [`ExecBackend`] refuses, with the same error: the level and scale checks
/// of every operation, and the encoder's own validation of every constant and slot vector.
/// The one check left to execution is the range of a slot vector's transformed
/// coefficients, which needs the transform a shadow never runs.
#[derive(Debug)]
pub struct PlanBackend {
    ctx: Arc<CkksContext>,
    trace: RefCell<OpTrace>,
    keys: RefCell<Vec<KeyRef>>,
}

impl PlanBackend {
    /// An empty planner for the given context; `name` becomes the trace name.
    pub fn new(ctx: Arc<CkksContext>, name: impl Into<String>) -> Self {
        Self {
            ctx,
            trace: RefCell::new(OpTrace::new(name)),
            keys: RefCell::default(),
        }
    }

    /// Appends a raw op (used for pipeline steps outside the evaluator surface, e.g. the
    /// ModRaise NTT batch).
    pub fn push(&self, op: HeOp) {
        self.trace.borrow_mut().push(op);
    }

    /// Consumes the planner, returning the accumulated analytic trace.
    pub fn into_trace(self) -> OpTrace {
        self.trace.into_inner()
    }

    /// Consumes the planner, returning the key stream: one [`KeyRef`] per key switch, with
    /// repeats, in the order an [`ExecBackend`] running the same pipeline asks for them.
    pub fn into_key_refs(self) -> Vec<KeyRef> {
        self.keys.into_inner()
    }

    /// Records one key-switched Galois op and the key it asks for.
    fn record_galois(&self, op: HeOp, element: u64) {
        self.push(op);
        self.keys.borrow_mut().push(KeyRef::Galois(element));
    }

    /// A plaintext product at `pt_scale`, once its plaintext has been validated.
    fn multiply_plain(&self, a: &PlanCiphertext, pt_scale: f64) -> PlanCiphertext {
        self.push(HeOp::MultiplyPlain { level: a.level });
        PlanCiphertext::new(a.level, a.scale * pt_scale)
    }
}

/// What the evaluator checks of a constant at `scale` (`multiply_const`, `add_scalar`): both
/// parts scaled under the encoder's rules, as `Encoder::encode_constant` scales them.
fn check_constant(value: Complex64, scale: f64) -> Result<()> {
    scaled_constant(value.re, scale)?;
    scaled_constant(value.im, scale)?;
    Ok(())
}

impl EvalBackend for PlanBackend {
    type Ct = PlanCiphertext;

    fn ctx(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    fn level(&self, ct: &PlanCiphertext) -> usize {
        ct.level
    }

    fn scale(&self, ct: &PlanCiphertext) -> f64 {
        ct.scale
    }

    fn set_scale(&self, ct: &mut PlanCiphertext, scale: f64) {
        ct.scale = scale;
    }

    fn begin_phase(&self, label: &str) {
        self.trace.borrow_mut().mark_phase(label);
    }

    fn add(&self, a: &PlanCiphertext, b: &PlanCiphertext) -> Result<PlanCiphertext> {
        let level = a.level.min(b.level);
        check_scales(a.scale, b.scale)?;
        self.push(HeOp::Add { level });
        Ok(PlanCiphertext::new(level, a.scale))
    }

    fn sub(&self, a: &PlanCiphertext, b: &PlanCiphertext) -> Result<PlanCiphertext> {
        self.add(a, b)
    }

    fn add_scalar(&self, a: &PlanCiphertext, scalar: Complex64) -> Result<PlanCiphertext> {
        // The constant is added at the ciphertext's own scale and level.
        check_constant(scalar, a.scale)?;
        self.push(HeOp::Add { level: a.level });
        Ok(*a)
    }

    fn multiply_rescale(&self, a: &PlanCiphertext, b: &PlanCiphertext) -> Result<PlanCiphertext> {
        let level = a.level.min(b.level);
        self.push(HeOp::Multiply { level });
        self.keys.borrow_mut().push(KeyRef::Relin);
        self.rescale(&PlanCiphertext::new(level, a.scale * b.scale))
    }

    fn multiply_const(
        &self,
        a: &PlanCiphertext,
        value: Complex64,
        pt_scale: f64,
    ) -> Result<PlanCiphertext> {
        check_constant(value, pt_scale)?;
        Ok(self.multiply_plain(a, pt_scale))
    }

    fn accumulate_const(
        &self,
        acc: &mut PlanCiphertext,
        term: &PlanCiphertext,
        value: f64,
        pt_scale: f64,
    ) -> Result<()> {
        if term.level < acc.level {
            return Err(CkksError::LevelMismatch {
                left: acc.level,
                right: term.level,
            });
        }
        scaled_constant(value, pt_scale)?;
        check_scales(acc.scale, term.scale * pt_scale)?;
        self.push(HeOp::MultiplyPlain { level: acc.level });
        self.push(HeOp::Add { level: acc.level });
        Ok(())
    }

    fn multiply_diagonal(
        &self,
        lt: &LinearTransform,
        index: usize,
        a: &PlanCiphertext,
    ) -> Result<PlanCiphertext> {
        let prime = lt.diagonal_scale(&self.ctx, a.level, index)?;
        Ok(self.multiply_plain(a, prime))
    }

    fn multiply_real_slots(
        &self,
        a: &PlanCiphertext,
        values: &[f64],
        pt_scale: f64,
    ) -> Result<PlanCiphertext> {
        check_slot_values(values.len(), self.ctx.slot_count(), pt_scale)?;
        Ok(self.multiply_plain(a, pt_scale))
    }

    fn rescale(&self, a: &PlanCiphertext) -> Result<PlanCiphertext> {
        if a.level == 0 {
            return Err(CkksError::LevelExhausted {
                operation: "rescale",
            });
        }
        self.push(HeOp::Rescale { level: a.level });
        let prime = self.ctx.rescale_prime(a.level) as f64;
        Ok(PlanCiphertext::new(a.level - 1, a.scale / prime))
    }

    fn mod_drop_to_level(&self, a: &PlanCiphertext, level: usize) -> Result<PlanCiphertext> {
        if level > a.level {
            return Err(CkksError::LevelMismatch {
                left: a.level,
                right: level,
            });
        }
        Ok(PlanCiphertext::new(level, a.scale))
    }

    fn rotate(&self, a: &PlanCiphertext, steps: usize) -> Result<PlanCiphertext> {
        self.rotate_batch_hoisted(a, &[steps])?;
        Ok(*a)
    }

    fn rotate_batch_hoisted(
        &self,
        a: &PlanCiphertext,
        steps: &[usize],
    ) -> Result<Vec<PlanCiphertext>> {
        let slots = self.ctx.slot_count();
        let mut first = true;
        for st in steps.iter().map(|s| s % slots).filter(|&st| st != 0) {
            let op = if first {
                HeOp::Rotate { level: a.level }
            } else {
                HeOp::RotateHoisted { level: a.level }
            };
            self.record_galois(op, galois_element_for_rotation(self.ctx.degree(), st));
            first = false;
        }
        Ok(vec![*a; steps.len()])
    }

    fn conjugate(&self, a: &PlanCiphertext) -> Result<PlanCiphertext> {
        let element = galois_element_for_conjugation(self.ctx.degree());
        self.record_galois(HeOp::Conjugate { level: a.level }, element);
        Ok(*a)
    }

    fn multiply_by_monomial(&self, a: &PlanCiphertext, _power: usize) -> Result<PlanCiphertext> {
        Ok(*a)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::recording_keys::RecordingKeys;
    use crate::{CkksParams, Encoder, Encryptor, KeyGenerator, SecretKey};
    use rand::SeedableRng;

    /// One method call of the per-method gate, on operands `x` and `y`.
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Add,
        Sub,
        AddScalar(Complex64),
        MultiplyScalar(Complex64),
        MultiplyRescale,
        MultiplyConst(Complex64, f64),
        /// `acc = multiply_const(x, 0.75, pt_scale)`, then `acc += value·y`.
        AccumulateConst(f64, f64),
        /// `multiply_diagonal` of the full-slot [`stage`] at this plan position.
        MultiplyDiagonal(usize),
        MultiplyRealSlots(usize),
        Rescale,
        ModDrop(usize),
        MatchScale(f64),
        AlignForAddition,
        AlignExact,
        Rotate(usize),
        RotateBatch,
        Conjugate,
        Monomial(usize),
        /// `apply_with` of the [`stage`] over this many slots.
        ApplyWith(usize),
        /// `begin_phase`, then `add`.
        PhaseThenAdd,
    }

    /// The three-diagonal transform {0, 1, 2} over `slots` slots: one unrotated group.
    fn stage(slots: usize) -> LinearTransform {
        let ones = || vec![Complex64::one(); slots];
        LinearTransform::from_diagonals(
            slots,
            BTreeMap::from([(0, ones()), (1, ones()), (2, ones())]),
        )
    }

    /// Runs `call` on `backend` (the one control flow both interpreters go through) and
    /// returns each result's `(level, scale bits)`.
    fn run<B: EvalBackend>(
        backend: &B,
        call: Call,
        x: &B::Ct,
        y: &B::Ct,
    ) -> Result<Vec<(usize, u64)>> {
        let full = backend.ctx().slot_count();
        let delta = backend.ctx().params().default_scale();
        let slots =
            |count: usize| -> Vec<f64> { (0..count).map(|i| (i as f64 * 0.3).sin()).collect() };
        let one = |ct: Result<B::Ct>| ct.map(|ct| vec![ct]);
        let out = match call {
            Call::Add => one(backend.add(x, y)),
            Call::Sub => one(backend.sub(x, y)),
            Call::AddScalar(c) => one(backend.add_scalar(x, c)),
            Call::MultiplyScalar(c) => one(backend.multiply_scalar(x, c)),
            Call::MultiplyRescale => one(backend.multiply_rescale(x, y)),
            Call::MultiplyConst(c, pt_scale) => one(backend.multiply_const(x, c, pt_scale)),
            Call::AccumulateConst(value, pt_scale) => {
                let mut acc = backend.multiply_const(x, Complex64::new(0.75, 0.0), pt_scale)?;
                backend.accumulate_const(&mut acc, y, value, pt_scale)?;
                Ok(vec![acc])
            }
            Call::MultiplyDiagonal(index) => one(backend.multiply_diagonal(&stage(full), index, x)),
            Call::MultiplyRealSlots(count) => {
                one(backend.multiply_real_slots(x, &slots(count), delta))
            }
            Call::Rescale => one(backend.rescale(x)),
            Call::ModDrop(level) => one(backend.mod_drop_to_level(x, level)),
            Call::MatchScale(target) => one(backend.match_scale(x, target)),
            Call::AlignForAddition => backend.align_for_addition(x, y).map(|(a, b)| vec![a, b]),
            Call::AlignExact => backend.align_exact(x, y).map(|(a, b)| vec![a, b]),
            Call::Rotate(steps) => one(backend.rotate(x, steps)),
            Call::RotateBatch => backend.rotate_batch_hoisted(x, &[0, 1, 2]),
            Call::Conjugate => one(backend.conjugate(x)),
            Call::Monomial(power) => one(backend.multiply_by_monomial(x, power)),
            Call::ApplyWith(count) => one(stage(count).apply_with(backend, x)),
            Call::PhaseThenAdd => {
                backend.begin_phase("phase");
                one(backend.add(x, y))
            }
        }?;
        Ok(out
            .iter()
            .map(|ct| (backend.level(ct), backend.scale(ct).to_bits()))
            .collect())
    }

    #[test]
    fn plan_backend_tracks_levels_and_scales_like_the_scheme() {
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let plan = PlanBackend::new(ctx.clone(), "plan");
        let scale = ctx.params().default_scale();
        let ct = PlanCiphertext::new(3, scale);
        let sq = plan.multiply_rescale(&ct, &ct).unwrap();
        assert_eq!(sq.level, 2);
        let expected_scale = scale * scale / ctx.rescale_prime(3) as f64;
        assert_eq!(sq.scale, expected_scale);
        let dropped = plan.mod_drop_to_level(&sq, 1).unwrap();
        assert_eq!(dropped.level, 1);
        let trace = plan.into_trace();
        assert_eq!(
            trace.ops,
            vec![HeOp::Multiply { level: 3 }, HeOp::Rescale { level: 3 }]
        );
        // Where `align_for_addition` would relabel a scale within the tolerance,
        // `align_exact` brings the higher operand to the other's scale bit for bit.
        let plan = PlanBackend::new(ctx.clone(), "plan");
        let high = PlanCiphertext::new(5, scale * (1.0 + 1e-8));
        let (x, y) = plan.align_exact(&high, &sq).unwrap();
        assert_eq!((x.level, x.scale.to_bits()), (y.level, sq.scale.to_bits()));
        assert_eq!(plan.into_trace().counts().rescale, 1);
    }

    #[test]
    fn plan_backend_replicates_error_conditions() {
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let plan = PlanBackend::new(ctx.clone(), "plan");
        let exhausted = PlanCiphertext::new(0, ctx.params().default_scale());
        assert!(matches!(
            plan.rescale(&exhausted),
            Err(CkksError::LevelExhausted { .. })
        ));
        assert!(matches!(
            plan.mod_drop_to_level(&exhausted, 2),
            Err(CkksError::LevelMismatch { .. })
        ));
        let a = PlanCiphertext::new(2, 1.0e12);
        let b = PlanCiphertext::new(2, 2.0e12);
        assert!(matches!(
            plan.add(&a, &b),
            Err(CkksError::ScaleMismatch { .. })
        ));
    }

    #[test]
    fn exec_and_plan_agree_method_by_method() {
        // Every `EvalBackend` method, through an `ExecBackend` on real ciphertexts and a
        // `PlanBackend` on shadows at the same `(level, scale)`: the same result levels and
        // scale bits, the same op stream and phases, the same key stream, the same error.
        // `ops` is the number of ops the row records, which pins the branch it takes.
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let delta = ctx.params().default_scale();
        let slots = ctx.slot_count();
        let c = Complex64::new;
        // name, x and y as (level, scale), call, ops recorded, fails.
        type Row = (&'static str, (usize, f64), (usize, f64), Call, usize, bool);
        #[rustfmt::skip]
        let rows: &[Row] = &[
            ("add aligns levels", (4, delta), (2, delta), Call::Add, 1, false),
            ("sub", (3, delta), (3, delta), Call::Sub, 1, false),
            ("add_scalar real", (3, delta), (3, delta), Call::AddScalar(c(2.5, 0.0)), 1, false),
            ("add_scalar complex", (3, delta), (3, delta), Call::AddScalar(c(0.5, -1.0)), 1, false),
            ("multiply_scalar real", (3, delta), (3, delta), Call::MultiplyScalar(c(0.5, 0.0)), 2, false),
            ("multiply_scalar complex", (3, delta), (3, delta), Call::MultiplyScalar(c(0.5, -2.0)), 2, false),
            ("multiply_rescale", (3, delta), (4, delta), Call::MultiplyRescale, 2, false),
            ("multiply_const", (3, delta), (3, delta), Call::MultiplyConst(c(-0.37, 0.0), delta), 1, false),
            ("accumulate_const", (3, delta), (5, delta), Call::AccumulateConst(0.5, delta), 3, false),
            ("multiply_diagonal", (3, delta), (3, delta), Call::MultiplyDiagonal(2), 1, false),
            ("multiply_real_slots", (3, delta), (3, delta), Call::MultiplyRealSlots(16), 1, false),
            ("rescale", (3, delta), (3, delta), Call::Rescale, 1, false),
            ("mod_drop_to_level", (4, delta), (4, delta), Call::ModDrop(1), 0, false),
            ("match_scale relabels", (3, delta), (3, delta), Call::MatchScale(delta * (1.0 + 1e-8)), 0, false),
            ("match_scale spends a level", (3, delta), (3, delta), Call::MatchScale(delta * 0.75), 2, false),
            ("align a > b", (3, delta * 1.5), (4, delta), Call::AlignForAddition, 2, false),
            ("align a < b", (4, delta), (3, delta * 1.5), Call::AlignForAddition, 2, false),
            ("align equal scales", (3, delta), (5, delta), Call::AlignForAddition, 0, false),
            ("align_exact a higher", (5, delta * 1.5), (3, delta), Call::AlignExact, 2, false),
            ("align_exact b higher within tolerance", (3, delta), (5, delta * (1.0 + 1e-8)), Call::AlignExact, 2, false),
            ("align_exact equal scales", (5, delta), (3, delta), Call::AlignExact, 0, false),
            ("align_exact equal levels", (3, delta * 1.5), (3, delta), Call::AlignExact, 2, false),
            ("rotate", (3, delta), (3, delta), Call::Rotate(1), 1, false),
            ("rotate_batch_hoisted", (3, delta), (3, delta), Call::RotateBatch, 2, false),
            ("conjugate", (3, delta), (3, delta), Call::Conjugate, 1, false),
            ("multiply_by_monomial", (3, delta), (3, delta), Call::Monomial(3), 0, false),
            ("apply_with", (3, delta), (3, delta), Call::ApplyWith(slots), 8, false),
            ("begin_phase", (3, delta), (2, delta), Call::PhaseThenAdd, 1, false),
            // Refusals: both interpreters fail the same way, after the same ops.
            ("rescale at level 0", (0, delta), (0, delta), Call::Rescale, 0, true),
            ("multiply_scalar at level 0", (0, delta), (0, delta), Call::MultiplyScalar(c(0.5, 0.0)), 0, true),
            ("match_scale at level 0", (0, delta), (0, delta), Call::MatchScale(delta * 0.75), 0, true),
            ("match_scale below 1", (3, delta), (3, delta), Call::MatchScale(delta * 2f64.powi(-50)), 0, true),
            ("mod_drop_to_level upward", (2, delta), (2, delta), Call::ModDrop(4), 0, true),
            ("add scale mismatch", (2, delta), (2, delta * 2.0), Call::Add, 0, true),
            ("accumulate_const level mismatch", (3, delta), (2, delta), Call::AccumulateConst(0.5, delta), 1, true),
            ("multiply_scalar out of range", (3, delta), (3, delta), Call::MultiplyScalar(c(1e10, 0.0)), 0, true),
            ("match_scale out of range", (3, delta), (3, delta), Call::MatchScale(2f64.powi(64)), 0, true),
            ("align_exact below 1", (4, delta), (2, delta * 2f64.powi(-50)), Call::AlignExact, 0, true),
            ("multiply_const bad scale", (3, delta), (3, delta), Call::MultiplyConst(c(1.0, 0.0), -1.0), 0, true),
            ("add_scalar out of range", (3, delta), (3, delta), Call::AddScalar(c(0.5, 1e10)), 0, true),
            ("accumulate_const out of range", (3, delta), (5, delta), Call::AccumulateConst(1e10, delta), 1, true),
            ("multiply_real_slots too many", (3, delta), (3, delta), Call::MultiplyRealSlots(slots + 1), 0, true),
            ("multiply_diagonal past the plan", (3, delta), (3, delta), Call::MultiplyDiagonal(3), 0, true),
            ("apply_with at level 0", (0, delta), (0, delta), Call::ApplyWith(slots), 0, true),
            ("apply_with over another slot count", (3, delta), (3, delta), Call::ApplyWith(slots / 2), 0, true),
        ];

        let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(26);
        let keygen = KeyGenerator::new(ctx.clone(), SecretKey::generate(&ctx, &mut rng));
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone(), keygen.public_key(&mut rng));
        let mut steps = stage(slots).required_rotations();
        steps.extend([1, 2]);
        let rlk = keygen.relinearization_key(&mut rng);
        let gks = keygen.galois_keys(&steps, true, &mut rng).unwrap();
        let resident = (&rlk, &gks);
        let keys = RecordingKeys::new(&resident);
        let sink = fab_trace::RecordingSink::shared("exec");
        let evaluator = Evaluator::with_sink(ctx.clone(), sink.clone());
        let exec = ExecBackend::new(&evaluator, &keys);
        let values: Vec<f64> = (0..16).map(|i| (i as f64 * 0.2).cos()).collect();
        let mut encrypt = |(level, scale): (usize, f64)| {
            let pt = encoder.encode_real(&values, scale, level).unwrap();
            encryptor.encrypt(&pt, &mut rng).unwrap()
        };
        let shadow = |(level, scale): (usize, f64)| PlanCiphertext::new(level, scale);

        for &(name, x, y, call, ops, fails) in rows {
            let (x_ct, y_ct) = (encrypt(x), encrypt(y));
            let executed = run(&exec, call, &x_ct, &y_ct);
            let recorded = sink.take();
            let plan = PlanBackend::new(ctx.clone(), "plan");
            let planned = run(&plan, call, &shadow(x), &shadow(y));
            let planned_keys = plan.keys.borrow().clone();
            let planned_trace = plan.into_trace();

            assert_eq!(executed, planned, "{name}: result or error");
            assert_eq!(executed.is_err(), fails, "{name}: {executed:?}");
            assert_eq!(
                recorded.phase_slices(),
                planned_trace.phase_slices(),
                "{name}: ops"
            );
            assert_eq!(recorded.len(), ops, "{name}: {:?}", recorded.ops);
            assert_eq!(keys.take(), planned_keys, "{name}: keys");
        }
    }

    #[test]
    fn exec_and_plan_emit_the_same_hoisted_batch_op_stream() {
        // No trait default ties the two interpreters' batches together, so it is stated:
        // free clones for multiples of the slot count, `Rotate` once, `RotateHoisted` after.
        use crate::{Encoder, Encryptor, KeyGenerator, SecretKey};
        use rand::SeedableRng;
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(17);
        let keygen = KeyGenerator::new(ctx.clone(), SecretKey::generate(&ctx, &mut rng));
        let pk = keygen.public_key(&mut rng);
        let keys = keygen.galois_keys(&[1, 2], false, &mut rng).unwrap();
        let level = 3;
        let scale = ctx.params().default_scale();
        let pt = Encoder::new(ctx.clone())
            .encode_real(&[0.5, -0.25], scale, level)
            .unwrap();
        let ct = Encryptor::new(ctx.clone(), pk)
            .encrypt(&pt, &mut rng)
            .unwrap();
        let steps = [0, 1, ctx.slot_count(), 2, 1];

        let sink = fab_trace::RecordingSink::shared("exec");
        let evaluator = Evaluator::with_sink(ctx.clone(), sink.clone());
        let exec = ExecBackend::new(&evaluator, &keys);
        let rotated = exec.rotate_batch_hoisted(&ct, &steps).unwrap();
        let plan = PlanBackend::new(ctx.clone(), "plan");
        let shadow = PlanCiphertext::new(level, scale);
        let shadows = plan.rotate_batch_hoisted(&shadow, &steps).unwrap();

        assert_eq!(rotated.len(), steps.len());
        assert_eq!(shadows, vec![shadow; steps.len()]);
        // The batch comes back in evaluation form, the free clones as the promoted input.
        let promoted = evaluator.to_evaluation_form(&ct).unwrap();
        assert!(rotated
            .iter()
            .all(|r| r.c0().is_evaluation() && r.c1().is_evaluation()));
        for free in [0, 2] {
            assert_eq!(rotated[free].c0(), promoted.c0());
            assert_eq!(rotated[free].c1(), promoted.c1());
        }
        assert_eq!(rotated[1].c0(), rotated[4].c0());
        let expected = vec![
            HeOp::Rotate { level },
            HeOp::RotateHoisted { level },
            HeOp::RotateHoisted { level },
        ];
        assert_eq!(sink.take().ops, expected);
        // One key per recorded op, by name: the free clones ask for none.
        let element = |steps| KeyRef::Galois(galois_element_for_rotation(ctx.degree(), steps));
        assert_eq!(*plan.keys.borrow(), [element(1), element(2), element(1)]);
        assert_eq!(plan.into_trace().ops, expected);
    }
}

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
//! Because both interpreters implement the exact level/scale bookkeeping of the evaluator
//! (including the data-independent branches of scale management), a recorded execution and a
//! plan of the same pipeline must agree op-for-op, and the keys a provider is asked for must
//! equal the planned key stream element for element; the equivalence tests in this crate and
//! in the workspace integration suite enforce both, which is what keeps the accelerator
//! model's analytic workloads — and a prefetcher's schedule — from drifting away from what
//! the scheme actually executes.

use std::cell::RefCell;
use std::sync::Arc;

use fab_math::{galois_element_for_conjugation, galois_element_for_rotation, Complex64};
use fab_trace::{HeOp, OpTrace};

use crate::evaluator::scales_match;
use crate::{
    Ciphertext, CkksContext, CkksError, Evaluator, KeyProvider, KeyRef, LinearTransform,
    RelinearizationKey, Result,
};

/// The operations a backend must interpret; mirrors the semantic surface of [`Evaluator`].
///
/// Implementations must keep the level/scale bookkeeping *identical* to the evaluator's, so
/// that planned and executed traces agree op-for-op.
pub trait EvalBackend {
    /// The ciphertext representation this backend computes on.
    type Ct: Clone;

    /// The scheme context.
    fn ctx(&self) -> &Arc<CkksContext>;

    /// Current level of a ciphertext.
    fn level(&self, ct: &Self::Ct) -> usize;

    /// Current scale of a ciphertext.
    fn scale(&self, ct: &Self::Ct) -> f64;

    /// Marks the start of a named phase in the emitted trace.
    fn begin_phase(&self, label: &str);

    /// Homomorphic addition (operands aligned to the lower level).
    fn add(&self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct>;

    /// Homomorphic subtraction.
    fn sub(&self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct>;

    /// Adds a constant to every slot.
    fn add_scalar(&self, a: &Self::Ct, scalar: Complex64) -> Result<Self::Ct>;

    /// Multiplies every slot by a constant encoded at the current rescaling prime, then
    /// rescales (scale-preserving, one level).
    fn multiply_scalar(&self, a: &Self::Ct, scalar: Complex64) -> Result<Self::Ct>;

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

    /// Multiplies by a slot-vector plaintext encoded at `pt_scale` (no rescale).
    fn multiply_slots(&self, a: &Self::Ct, values: &[Complex64], pt_scale: f64)
        -> Result<Self::Ct>;

    /// Multiplies by the plaintext `rot_{-shift}(values)` (i.e. `values` pre-rotated right by
    /// `shift` slots) encoded at `pt_scale` — the BSGS giant-step diagonal shape. The default
    /// materialises the shifted vector and defers to [`Self::multiply_slots`]; [`PlanBackend`]
    /// overrides it to skip the O(n) copy, since shadows never read the values.
    ///
    /// # Errors
    ///
    /// Same as [`Self::multiply_slots`].
    fn multiply_shifted_slots(
        &self,
        a: &Self::Ct,
        values: &[Complex64],
        shift: usize,
        pt_scale: f64,
    ) -> Result<Self::Ct> {
        if shift == 0 {
            return self.multiply_slots(a, values, pt_scale);
        }
        let n = values.len();
        let shifted: Vec<Complex64> = (0..n).map(|j| values[(j + n - shift) % n]).collect();
        self.multiply_slots(a, &shifted, pt_scale)
    }

    /// Multiplies by a real slot-vector plaintext encoded at `pt_scale` (no rescale).
    fn multiply_real_slots(&self, a: &Self::Ct, values: &[f64], pt_scale: f64) -> Result<Self::Ct>;

    /// Rescale by the current prime.
    fn rescale(&self, a: &Self::Ct) -> Result<Self::Ct>;

    /// Drops to a lower level without rescaling.
    fn mod_drop_to_level(&self, a: &Self::Ct, level: usize) -> Result<Self::Ct>;

    /// Brings a ciphertext exactly to `target_scale` (possibly spending a level).
    fn match_scale(&self, a: &Self::Ct, target_scale: f64) -> Result<Self::Ct>;

    /// Brings two ciphertexts to a common level and scale.
    fn align_for_addition(&self, a: &Self::Ct, b: &Self::Ct) -> Result<(Self::Ct, Self::Ct)>;

    /// Rotation with its own key-switch decomposition.
    fn rotate(&self, a: &Self::Ct, steps: usize) -> Result<Self::Ct>;

    /// Rotates one ciphertext by every step in `steps`, sharing a single key-switch
    /// decomposition across the batch (hoisting, Bossuat et al.): the first nonzero step is a
    /// full rotation ([`HeOp::Rotate`]), every further nonzero step a hoisted one
    /// ([`HeOp::RotateHoisted`]), and steps that are multiples of the slot count are free
    /// clones. Hoisting exists only here, where a decomposition is really shared:
    /// [`ExecBackend`] runs the evaluator's shared Decomp→ModUp, [`PlanBackend`] emits the
    /// *identical* op stream — which is what keeps recorded executions and planned traces in
    /// op-for-op agreement.
    ///
    /// # Errors
    ///
    /// Same as [`Self::rotate`].
    fn rotate_batch_hoisted(&self, a: &Self::Ct, steps: &[usize]) -> Result<Vec<Self::Ct>>;

    /// Conjugation.
    fn conjugate(&self, a: &Self::Ct) -> Result<Self::Ct>;

    /// Multiplication by the monomial `X^power` (free on FAB; no trace op).
    fn multiply_by_monomial(&self, a: &Self::Ct, power: usize) -> Result<Self::Ct>;

    /// Applies a linear transform through its BSGS plan. The default runs the backend-generic
    /// coefficient-resident control flow (one plaintext multiplication round-trip per
    /// diagonal); [`ExecBackend`] overrides it with the eval-resident, NTT-cached execution
    /// — emitting the **identical** semantic op stream, which is what keeps recorded
    /// executions and planned traces in op-for-op agreement.
    ///
    /// # Errors
    ///
    /// Same as [`LinearTransform::apply_with`].
    fn apply_bsgs_planned(&self, lt: &LinearTransform, ct: &Self::Ct) -> Result<Self::Ct>
    where
        Self: Sized,
    {
        crate::linear_transform::apply_planned_generic(lt, self, ct)
    }
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

    fn multiply_scalar(&self, a: &Ciphertext, scalar: Complex64) -> Result<Ciphertext> {
        self.evaluator.multiply_scalar(a, scalar)
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

    fn multiply_slots(
        &self,
        a: &Ciphertext,
        values: &[Complex64],
        pt_scale: f64,
    ) -> Result<Ciphertext> {
        let pt = self
            .evaluator
            .encoder()
            .encode(values, pt_scale, a.level())?;
        self.evaluator.multiply_plain(a, &pt)
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

    fn match_scale(&self, a: &Ciphertext, target_scale: f64) -> Result<Ciphertext> {
        self.evaluator.match_scale(a, target_scale)
    }

    fn align_for_addition(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
    ) -> Result<(Ciphertext, Ciphertext)> {
        self.evaluator.align_for_addition(a, b)
    }

    fn rotate(&self, a: &Ciphertext, steps: usize) -> Result<Ciphertext> {
        self.evaluator.rotate(a, steps, self.keys)
    }

    fn rotate_batch_hoisted(&self, a: &Ciphertext, steps: &[usize]) -> Result<Vec<Ciphertext>> {
        self.evaluator.rotate_hoisted_batch(a, steps, self.keys)
    }

    fn conjugate(&self, a: &Ciphertext) -> Result<Ciphertext> {
        self.evaluator.conjugate(a, self.keys)
    }

    fn multiply_by_monomial(&self, a: &Ciphertext, power: usize) -> Result<Ciphertext> {
        self.evaluator.multiply_by_monomial(a, power)
    }

    fn apply_bsgs_planned(&self, lt: &LinearTransform, ct: &Ciphertext) -> Result<Ciphertext> {
        lt.apply_planned_exec(self.evaluator, self.keys, ct)
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

    fn rescale_prime(&self, level: usize) -> f64 {
        self.ctx.rescale_prime(level) as f64
    }

    fn check_scales(&self, a: f64, b: f64) -> Result<()> {
        if !scales_match(a, b) {
            return Err(CkksError::ScaleMismatch { left: a, right: b });
        }
        Ok(())
    }

    fn align_levels(
        &self,
        a: &PlanCiphertext,
        b: &PlanCiphertext,
    ) -> (PlanCiphertext, PlanCiphertext) {
        let level = a.level.min(b.level);
        (
            PlanCiphertext::new(level, a.scale),
            PlanCiphertext::new(level, b.scale),
        )
    }
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

    fn begin_phase(&self, label: &str) {
        self.trace.borrow_mut().mark_phase(label);
    }

    fn add(&self, a: &PlanCiphertext, b: &PlanCiphertext) -> Result<PlanCiphertext> {
        let (a, b) = self.align_levels(a, b);
        self.check_scales(a.scale, b.scale)?;
        self.push(HeOp::Add { level: a.level });
        Ok(a)
    }

    fn sub(&self, a: &PlanCiphertext, b: &PlanCiphertext) -> Result<PlanCiphertext> {
        let (a, b) = self.align_levels(a, b);
        self.check_scales(a.scale, b.scale)?;
        self.push(HeOp::Add { level: a.level });
        Ok(a)
    }

    fn add_scalar(&self, a: &PlanCiphertext, _scalar: Complex64) -> Result<PlanCiphertext> {
        // The constant is added at the ciphertext's own scale and level.
        self.push(HeOp::Add { level: a.level });
        Ok(*a)
    }

    fn multiply_scalar(&self, a: &PlanCiphertext, _scalar: Complex64) -> Result<PlanCiphertext> {
        if a.level == 0 {
            return Err(CkksError::LevelExhausted {
                operation: "multiply_scalar",
            });
        }
        let prime = self.rescale_prime(a.level);
        let product = self.multiply_const(a, Complex64::one(), prime)?;
        self.rescale(&product)
    }

    fn multiply_rescale(&self, a: &PlanCiphertext, b: &PlanCiphertext) -> Result<PlanCiphertext> {
        let (a, b) = self.align_levels(a, b);
        self.push(HeOp::Multiply { level: a.level });
        self.keys.borrow_mut().push(KeyRef::Relin);
        let product = PlanCiphertext::new(a.level, a.scale * b.scale);
        self.rescale(&product)
    }

    fn multiply_const(
        &self,
        a: &PlanCiphertext,
        _value: Complex64,
        pt_scale: f64,
    ) -> Result<PlanCiphertext> {
        self.push(HeOp::MultiplyPlain { level: a.level });
        Ok(PlanCiphertext::new(a.level, a.scale * pt_scale))
    }

    fn accumulate_const(
        &self,
        acc: &mut PlanCiphertext,
        term: &PlanCiphertext,
        _value: f64,
        pt_scale: f64,
    ) -> Result<()> {
        if term.level < acc.level {
            return Err(CkksError::LevelMismatch {
                left: acc.level,
                right: term.level,
            });
        }
        self.check_scales(acc.scale, term.scale * pt_scale)?;
        self.push(HeOp::MultiplyPlain { level: acc.level });
        self.push(HeOp::Add { level: acc.level });
        Ok(())
    }

    fn multiply_slots(
        &self,
        a: &PlanCiphertext,
        _values: &[Complex64],
        pt_scale: f64,
    ) -> Result<PlanCiphertext> {
        self.multiply_const(a, Complex64::one(), pt_scale)
    }

    fn multiply_shifted_slots(
        &self,
        a: &PlanCiphertext,
        _values: &[Complex64],
        _shift: usize,
        pt_scale: f64,
    ) -> Result<PlanCiphertext> {
        // Shadows never read the plaintext, so skip materialising the shifted diagonal.
        self.multiply_const(a, Complex64::one(), pt_scale)
    }

    fn multiply_real_slots(
        &self,
        a: &PlanCiphertext,
        _values: &[f64],
        pt_scale: f64,
    ) -> Result<PlanCiphertext> {
        self.multiply_const(a, Complex64::one(), pt_scale)
    }

    fn rescale(&self, a: &PlanCiphertext) -> Result<PlanCiphertext> {
        if a.level == 0 {
            return Err(CkksError::LevelExhausted {
                operation: "rescale",
            });
        }
        self.push(HeOp::Rescale { level: a.level });
        let prime = self.rescale_prime(a.level);
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

    fn match_scale(&self, a: &PlanCiphertext, target_scale: f64) -> Result<PlanCiphertext> {
        if scales_match(a.scale, target_scale) {
            return Ok(PlanCiphertext::new(a.level, target_scale));
        }
        if a.level == 0 {
            return Err(CkksError::LevelExhausted {
                operation: "match_scale",
            });
        }
        let prime = self.rescale_prime(a.level);
        let enc_scale = (target_scale * prime / a.scale).round();
        if enc_scale < 1.0 {
            return Err(CkksError::InvalidInput {
                reason: format!(
                    "cannot match scale {target_scale:e} from {:e} at level {}",
                    a.scale, a.level
                ),
            });
        }
        let product = self.multiply_const(a, Complex64::one(), enc_scale)?;
        let mut rescaled = self.rescale(&product)?;
        rescaled.scale = target_scale;
        Ok(rescaled)
    }

    fn align_for_addition(
        &self,
        a: &PlanCiphertext,
        b: &PlanCiphertext,
    ) -> Result<(PlanCiphertext, PlanCiphertext)> {
        let (mut a, mut b) = self.align_levels(a, b);
        if !scales_match(a.scale, b.scale) {
            if a.scale > b.scale {
                a = self.match_scale(&a, b.scale)?;
                let level = a.level.min(b.level);
                a = self.mod_drop_to_level(&a, level)?;
                b = self.mod_drop_to_level(&b, level)?;
            } else {
                b = self.match_scale(&b, a.scale)?;
                let level = a.level.min(b.level);
                a = self.mod_drop_to_level(&a, level)?;
                b = self.mod_drop_to_level(&b, level)?;
            }
        }
        Ok((a, b))
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
    use super::*;
    use crate::CkksParams;

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
        for free in [0, 2] {
            assert_eq!(rotated[free].c0(), ct.c0());
            assert_eq!(rotated[free].c1(), ct.c1());
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
}

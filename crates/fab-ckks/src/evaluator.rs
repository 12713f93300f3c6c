//! Homomorphic operations: addition, multiplication, rescaling, rotation, conjugation, and the
//! hybrid key-switching core (Decomp → ModUp → KSKIP → ModDown, Figure 5 of the paper).
//!
//! The evaluator is the instrumentation choke point of the workspace: every semantic
//! operation reports one [`HeOp`] to the attached [`TraceSink`], so a real execution produces
//! exactly the event stream the `fab-core` accelerator model prices. The default sink is a
//! no-op whose `is_enabled` check reduces the overhead to a single predictable branch.
//!
//! ## Scratch arena
//!
//! Steady-state hot paths (`multiply`, `key_switch`, `rotate_hoisted_batch`,
//! `multiply_plain`) draw every temporary polynomial from a shared buffer pool instead of
//! allocating: leased flat buffers are reshaped in place ([`RnsPolynomial::reset`] /
//! [`RnsPolynomial::copy_from`]) and recycled when the operation completes, and the cached
//! per-level ModUp/ModDown plans on [`CkksContext`] remove all per-call constant
//! recomputation. Only the polynomials that escape into the returned [`Ciphertext`] keep
//! their buffers.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use fab_math::{galois_element_for_conjugation, galois_element_for_rotation, Complex64};
use fab_rns::{ops, Domain, Representation, RnsBasis, RnsPolynomial};
use fab_trace::{noop_sink, HeOp, TraceSink};

use crate::encoding::constant_residues;
use crate::{
    Ciphertext, CkksContext, CkksError, Encoder, GaloisKeys, Plaintext, RelinearizationKey, Result,
    SwitchingKey,
};

/// Relative tolerance used when checking that two scales are compatible for addition.
pub(crate) const SCALE_TOLERANCE: f64 = 1e-6;

/// Reusable flat-buffer pool + kernel scratch shared by the evaluator's hot paths.
#[derive(Debug, Default)]
struct Scratch {
    /// Recycled flat limb-major buffers (capacity is retained across leases).
    pool: Vec<Vec<u64>>,
    /// Hoisted-product buffer for the basis-conversion kernels.
    convert: ops::ConvertScratch,
    /// Per-digit hoisted-product buffers for the batched (digit-parallel) ModUp.
    hoisted: Vec<Vec<u64>>,
    /// u128 KSKIP accumulator rows for the `b` key component (flat, `R·N`).
    acc_b: Vec<u128>,
    /// u128 KSKIP accumulator rows for the `a` key component (flat, `R·N`).
    acc_a: Vec<u128>,
}

/// Upper bound on pooled buffers; beyond this, recycled buffers are simply dropped.
const SCRATCH_POOL_LIMIT: usize = 32;

/// The once-raised digit data of the lazy key-switch pipeline: `d`'s own limbs plus every
/// digit's conversion rows, all in lazy `[0, 4q)` evaluation form over `Q_level ∪ P`.
///
/// Hoisted rotation batches compute this **once** and reuse it for every rotation (the
/// per-rotation automorphism is an evaluation-domain permutation applied inside the KSKIP
/// gather), which is what eliminates the per-rotation forward-NTT sweeps of the old path.
struct RaisedDigits {
    /// The raised basis `Q_level ∪ P` (tables shared behind `Arc`s).
    basis: RnsBasis,
    /// `d` forward-transformed once (`ℓ+1` rows) — each digit reads its own limb block.
    d_eval: RnsPolynomial,
    /// Per digit: the extension rows produced by ModUp conversion, in
    /// `ModUpPlan::conversion_rows` order.
    converted: Vec<RnsPolynomial>,
    /// Per digit: its `[start, end)` limb range inside `Q_level`.
    ranges: Vec<(usize, usize)>,
}

impl RaisedDigits {
    /// Returns every leased buffer to the arena.
    fn recycle_into(self, sc: &mut Scratch) {
        sc.recycle(self.d_eval);
        for poly in self.converted {
            sc.recycle(poly);
        }
    }
}

impl Scratch {
    /// Leases a zero-filled polynomial of the given shape from the pool.
    fn lease_zero(
        &mut self,
        degree: usize,
        limb_count: usize,
        representation: Representation,
    ) -> RnsPolynomial {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(degree * limb_count, 0);
        RnsPolynomial::from_flat(degree, buf, representation)
    }

    /// Leases a polynomial holding a copy of `src`.
    fn lease_copy(&mut self, src: &RnsPolynomial) -> RnsPolynomial {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(src.data());
        RnsPolynomial::from_flat(src.degree(), buf, src.representation())
    }

    /// Returns a leased polynomial's buffer to the pool.
    fn recycle(&mut self, poly: RnsPolynomial) {
        if self.pool.len() < SCRATCH_POOL_LIMIT {
            self.pool.push(poly.into_data());
        }
    }
}

/// Executes homomorphic operations over ciphertexts.
///
/// Ciphertexts default to coefficient representation between operations, and the evaluator
/// performs the NTT/iNTT transitions internally, mirroring the representation switches of the
/// FAB datapath (Section 4.5–4.6). Every operation is **domain-aware** through the per-poly
/// [`fab_rns::Domain`] tag: callers may keep ciphertexts *eval-resident*
/// ([`Evaluator::to_evaluation_form`]) so that `multiply_plain`/`add`/`sub` chains perform
/// zero transforms per step, `multiply` skips its operand forwards, and only the genuine
/// coefficient boundaries (rescale, automorphisms, basis conversions) convert back —
/// bitwise-identically to the coefficient-resident sequence, because the inverse NTT
/// canonicalises.
#[derive(Debug)]
pub struct Evaluator {
    ctx: Arc<CkksContext>,
    encoder: Encoder,
    sink: Arc<dyn TraceSink>,
    /// Per-evaluator buffer pool, locked for the duration of each hot-path operation.
    scratch: Arc<Mutex<Scratch>>,
}

impl Clone for Evaluator {
    fn clone(&self) -> Self {
        Self {
            ctx: Arc::clone(&self.ctx),
            encoder: self.encoder.clone(),
            sink: Arc::clone(&self.sink),
            // Scratch is pure buffer reuse, nothing semantic: each clone gets its own arena
            // so ciphertext-level parallelism across clones does not serialise on one lock.
            scratch: Arc::new(Mutex::new(Scratch::default())),
        }
    }
}

impl Evaluator {
    /// Creates an evaluator for the given context, with the no-op trace sink.
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        Self::with_sink(ctx, noop_sink())
    }

    /// Creates an evaluator whose operations are reported to `sink` as they execute.
    ///
    /// ```
    /// use fab_ckks::{CkksContext, CkksParams, Evaluator};
    /// use fab_trace::RecordingSink;
    ///
    /// let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
    /// let sink = RecordingSink::shared("session");
    /// let evaluator = Evaluator::with_sink(ctx, sink.clone());
    /// assert!(evaluator.sink().is_enabled());
    /// ```
    pub fn with_sink(ctx: Arc<CkksContext>, sink: Arc<dyn TraceSink>) -> Self {
        let encoder = Encoder::new(ctx.clone());
        Self {
            ctx,
            encoder,
            sink,
            scratch: Arc::new(Mutex::new(Scratch::default())),
        }
    }

    /// Locks the shared scratch arena (never held across a second lock).
    ///
    /// A poisoned lock is recovered rather than propagated: the arena only holds recycled
    /// buffer pools, and every lease is re-zeroed on checkout, so state abandoned by a
    /// panicked thread cannot leak into results — and one panicked request must not take
    /// down every later request sharing the evaluator.
    fn scratch(&self) -> std::sync::MutexGuard<'_, Scratch> {
        self.scratch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Rejects a provider-supplied switching key whose geometry does not match this context
    /// and `level` *before* any indexed access can panic: digit count (`β = ⌈(level+1)/α⌉`),
    /// ring degree, and raised limb count are all checked. Corrupt blobs are caught earlier
    /// by the serialization checksum; this guards the structurally-valid-but-mismatched case
    /// (a key generated under different parameters reaching the wrong evaluator).
    fn validate_switching_key(&self, key: &SwitchingKey, level: usize) -> Result<()> {
        if key.digit_count() == 0 || key.alpha() == 0 {
            return Err(CkksError::KeyMismatch {
                reason: "switching key has no digits".into(),
            });
        }
        let beta = (level + 1).div_ceil(key.alpha());
        if key.digit_count() < beta {
            return Err(CkksError::KeyMismatch {
                reason: format!(
                    "key has {} digits of alpha {} but level {level} needs {beta}",
                    key.digit_count(),
                    key.alpha()
                ),
            });
        }
        let (b0, _) = key.component(0);
        if b0.degree() != self.ctx.degree() {
            return Err(CkksError::KeyMismatch {
                reason: format!(
                    "key degree {} but context degree {}",
                    b0.degree(),
                    self.ctx.degree()
                ),
            });
        }
        let raised = self.ctx.params().total_raised_limbs();
        if b0.limb_count() != raised {
            return Err(CkksError::KeyMismatch {
                reason: format!(
                    "key carries {} limbs but the raised basis has {raised}",
                    b0.limb_count()
                ),
            });
        }
        Ok(())
    }

    /// Replaces the trace sink, keeping context and encoder (builder-style).
    #[must_use]
    pub fn sink_replaced(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// The trace sink operations are reported to.
    pub fn sink(&self) -> &Arc<dyn TraceSink> {
        &self.sink
    }

    /// Reports one executed operation to the sink.
    pub(crate) fn record(&self, op: HeOp) {
        if self.sink.is_enabled() {
            self.sink.record(op);
        }
    }

    /// The context this evaluator is bound to.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The encoder used for scalar/plaintext helpers.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    // ------------------------------------------------------------------ domain management

    /// Returns the ciphertext with both parts in **evaluation** form (a clone when it already
    /// is). Together with the domain-aware operations this is what makes pipelines
    /// *eval-resident*: a ciphertext promoted once stays in evaluation form through
    /// `multiply_plain` / `add` / `sub` chains, paying zero transforms per step, and is
    /// demoted only at a genuine coefficient boundary (rescale, automorphism, basis
    /// conversion). Records nothing — domain moves are representation bookkeeping, not
    /// semantic operations.
    ///
    /// # Errors
    ///
    /// Propagates level errors.
    pub fn to_evaluation_form(&self, a: &Ciphertext) -> Result<Ciphertext> {
        if a.c0.is_evaluation() {
            return Ok(a.clone());
        }
        let basis = self.ctx.basis_at_level(a.level)?;
        let mut c0 = a.c0.clone();
        let mut c1 = a.c1.clone();
        c0.to_evaluation(&basis);
        c1.to_evaluation(&basis);
        Ok(Ciphertext::from_parts(c0, c1, a.scale, a.level))
    }

    /// Returns the ciphertext with both parts in **coefficient** form (a clone when it
    /// already is). The inverse NTT canonicalises, so converting an eval-resident ciphertext
    /// back is bitwise identical to having stayed coefficient-resident throughout.
    ///
    /// # Errors
    ///
    /// Propagates level errors.
    pub fn to_coefficient_form(&self, a: &Ciphertext) -> Result<Ciphertext> {
        if a.c0.is_coefficient() {
            return Ok(a.clone());
        }
        let basis = self.ctx.basis_at_level(a.level)?;
        let mut c0 = a.c0.clone();
        let mut c1 = a.c1.clone();
        c0.to_coefficient(&basis);
        c1.to_coefficient(&basis);
        Ok(Ciphertext::from_parts(c0, c1, a.scale, a.level))
    }

    /// Borrows `a` when it is already coefficient-form, otherwise converts a copy — the entry
    /// guard of the operations that genuinely need coefficient data (rescale, automorphisms,
    /// the raise of `c1`).
    fn coefficient_input<'t>(&self, a: &'t Ciphertext) -> Result<Cow<'t, Ciphertext>> {
        if a.c0.is_coefficient() {
            Ok(Cow::Borrowed(a))
        } else {
            Ok(Cow::Owned(self.to_coefficient_form(a)?))
        }
    }

    /// Converts `b` to `a`'s domain when the two disagree (mixed-form addition operands).
    fn match_form<'t>(
        &self,
        a: &Ciphertext,
        b: Cow<'t, Ciphertext>,
    ) -> Result<Cow<'t, Ciphertext>> {
        Ok(match (a.c0.domain(), b.c0.domain()) {
            (x, y) if x == y => b,
            (Domain::Evaluation, _) => Cow::Owned(self.to_evaluation_form(&b)?),
            (Domain::Coefficient, _) => Cow::Owned(self.to_coefficient_form(&b)?),
        })
    }

    // ---------------------------------------------------------------- additive operations

    /// Homomorphic addition. Operands at different levels are aligned to the lower level;
    /// mixed-domain operands are aligned to `a`'s domain (the result keeps `a`'s form, so
    /// eval-resident accumulations stay eval-resident).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::ScaleMismatch`] if the scales differ by more than the tolerance.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        let (a, b) = self.align_levels(a, b)?;
        let b = self.match_form(&a, b)?;
        self.check_scales(a.scale, b.scale)?;
        self.record(HeOp::Add { level: a.level });
        let basis = self.ctx.basis_at_level(a.level)?;
        Ok(Ciphertext::from_parts(
            a.c0.add(&b.c0, &basis)?,
            a.c1.add(&b.c1, &basis)?,
            a.scale,
            a.level,
        ))
    }

    /// Homomorphic subtraction (`a - b`). Domain handling as in [`Self::add`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::add`].
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        let (a, b) = self.align_levels(a, b)?;
        let b = self.match_form(&a, b)?;
        self.check_scales(a.scale, b.scale)?;
        self.record(HeOp::Add { level: a.level });
        let basis = self.ctx.basis_at_level(a.level)?;
        Ok(Ciphertext::from_parts(
            a.c0.sub(&b.c0, &basis)?,
            a.c1.sub(&b.c1, &basis)?,
            a.scale,
            a.level,
        ))
    }

    /// Homomorphic negation.
    ///
    /// # Errors
    ///
    /// Propagates level errors.
    pub fn negate(&self, a: &Ciphertext) -> Result<Ciphertext> {
        let basis = self.ctx.basis_at_level(a.level)?;
        Ok(Ciphertext::from_parts(
            a.c0.neg(&basis),
            a.c1.neg(&basis),
            a.scale,
            a.level,
        ))
    }

    /// Adds an encoded plaintext to a ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::ScaleMismatch`] / [`CkksError::LevelMismatch`] on shape problems.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext> {
        self.check_scales(a.scale, pt.scale)?;
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

    /// Subtracts an encoded plaintext from a ciphertext.
    ///
    /// # Errors
    ///
    /// Same as [`Self::add_plain`].
    pub fn sub_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext> {
        self.check_scales(a.scale, pt.scale)?;
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
            a.c0.sub(&pt_poly, &basis)?,
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

    // ------------------------------------------------------------ multiplicative operations

    /// Plaintext multiplication (no rescale). The result scale is the product of scales.
    ///
    /// **Domain-preserving**: a coefficient-form ciphertext is transformed, multiplied and
    /// transformed back (the PR 4 behaviour); an **evaluation-form** ciphertext skips both
    /// the forward and the final inverse round-trip — only the plaintext pays its `ℓ+1`
    /// forwards — and the result stays in evaluation form for the caller's next eval-resident
    /// step (`accounting::multiply_plain_eval`). Callers holding a pre-transformed plaintext
    /// can drop even those forwards via [`Evaluator::multiply_plain_ntt`].
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
        let mut p = sc.lease_zero(a.c0.degree(), 0, Representation::Coefficient);
        p.copy_limbs_from(&pt.poly, 0..a.level + 1)?;
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
    /// no plaintext polynomial. Bit-for-bit what [`Encoder::encode_constant`] +
    /// [`Self::multiply_plain`] produce, which is the route a constant with a non-zero
    /// imaginary part still takes.
    ///
    /// # Errors
    ///
    /// The errors of [`Encoder::encode_constant`]: [`CkksError::InvalidInput`] for a scale
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
        self.check_scales(acc.scale, term.scale * pt_scale)?;
        let term = self.match_form(acc, Cow::Borrowed(term))?;
        self.record(HeOp::MultiplyPlain { level: acc.level });
        self.record(HeOp::Add { level: acc.level });
        acc.c0
            .add_mul_scalar_per_limb(&term.c0, &residues, &basis)?;
        acc.c1
            .add_mul_scalar_per_limb(&term.c1, &residues, &basis)?;
        Ok(())
    }

    /// Multiplies every slot by a complex scalar encoded at the current level's rescaling
    /// prime, then rescales — the scale is preserved while one level is consumed.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at level 0 and propagates encoding errors.
    pub fn multiply_scalar(&self, a: &Ciphertext, scalar: Complex64) -> Result<Ciphertext> {
        if a.level == 0 {
            return Err(CkksError::LevelExhausted {
                operation: "multiply_scalar",
            });
        }
        let prime = self.ctx.rescale_prime(a.level) as f64;
        let product = self.multiply_const(a, scalar, prime)?;
        self.rescale(&product)
    }

    /// Ciphertext–ciphertext multiplication with relinearisation (no rescale). The result
    /// scale is the product of the operand scales; the result is in coefficient form.
    ///
    /// Runs the **domain-aware dual-form pipeline**: the tensor products `d0`/`d1`/`d2` stay
    /// in evaluation form, `d2` enters the key switch through the dual-form seam (its rows
    /// are reused as the digits' own raised rows — `ℓ+1` forwards saved against the PR 4
    /// path), and `P·d0`/`P·d1` are absorbed into the KSKIP accumulators *before* the
    /// accumulator inverse (`2·(ℓ+1)` inverses saved), so ModDown directly emits
    /// `d_i + k_i`. Operands already in evaluation form skip their forward transforms too.
    /// Output is bit-for-bit identical to [`Evaluator::multiply_reference`], the retained
    /// PR 4 coefficient-resident pipeline.
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
        let level = a.level;
        self.record(HeOp::Multiply { level });
        let basis = self.ctx.basis_at_level(level)?;
        let degree = a.c0.degree();

        let mut scratch = self.scratch();
        let sc = &mut *scratch;
        let (d0, d1, d2) = self.tensor_eval_with(sc, &a, &b, &basis)?;
        let raised = self.raise_digits(sc, &d2, rlk.key.alpha(), level)?;
        let (mut acc0, mut acc1) = self.kskip_accumulate(sc, &raised, &rlk.key, level, None)?;
        let p_mod_q = self.ctx.p_mod_q_constants(level)?;
        self.absorb_p_times(&mut acc0, &d0, &basis, &p_mod_q);
        self.absorb_p_times(&mut acc1, &d1, &basis, &p_mod_q);
        self.invert_accumulators(&mut acc0, &mut acc1, &raised.basis);
        raised.recycle_into(sc);
        sc.recycle(d0);
        sc.recycle(d1);
        sc.recycle(d2);

        // ModDown(acc + P·d) = d + ModDown(acc): the output parts come out in one pass.
        let down = self.ctx.mod_down_plan(level)?;
        let mut c0 = sc.lease_zero(degree, 0, Representation::Coefficient);
        let mut c1 = sc.lease_zero(degree, 0, Representation::Coefficient);
        down.apply_into(&acc0, &mut sc.convert, &mut c0)?;
        down.apply_into(&acc1, &mut sc.convert, &mut c1)?;
        sc.recycle(acc0);
        sc.recycle(acc1);
        Ok(Ciphertext::from_parts(c0, c1, a.scale * b.scale, level))
    }

    /// The PR 4 coefficient-resident multiplication — tensor inverses all three products,
    /// the key switch re-forwards `d2`'s rows, and `d0`/`d1` are added to the ModDown
    /// outputs in coefficient form — kept verbatim as the **bitwise** baseline for the
    /// dual-form pipeline, exactly like [`Evaluator::key_switch_reference`] is kept for the
    /// lazy key switch. The NTT-accounting suite pins [`Evaluator::multiply`] to it bit for
    /// bit and its transform count to the PR 4 closed form (`accounting::multiply_pr4`).
    ///
    /// # Errors
    ///
    /// Same as [`Evaluator::multiply`].
    pub fn multiply_reference(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &RelinearizationKey,
    ) -> Result<Ciphertext> {
        let (a, b) = self.align_levels(a, b)?;
        let level = a.level;
        self.record(HeOp::Multiply { level });
        let basis = self.ctx.basis_at_level(level)?;

        let mut scratch = self.scratch();
        let sc = &mut *scratch;
        let (mut d0, mut d1, mut d2) = self.tensor_eval_with(sc, &a, &b, &basis)?;
        d0.to_coefficient(&basis);
        d1.to_coefficient(&basis);
        d2.to_coefficient(&basis);
        let (k0, k1) = self.key_switch_with(sc, &d2, &rlk.key, level)?;
        // d0/d1 become the output parts in place; the key-switch pair is recycled.
        d0.add_assign(&k0, &basis)?;
        d1.add_assign(&k1, &basis)?;
        sc.recycle(d2);
        sc.recycle(k0);
        sc.recycle(k1);
        Ok(Ciphertext::from_parts(d0, d1, a.scale * b.scale, level))
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
    /// Returns [`CkksError::LevelExhausted`] if no level remains for the rescale.
    pub fn multiply_rescale(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &RelinearizationKey,
    ) -> Result<Ciphertext> {
        let (a, b) = self.align_levels(a, b)?;
        let level = a.level;
        if level == 0 {
            // Match the two-step path's error exactly: the multiply succeeds, the rescale
            // reports exhaustion.
            let product = self.multiply(&a, &b, rlk)?;
            return self.rescale(&product);
        }
        self.record(HeOp::Multiply { level });
        self.record(HeOp::Rescale { level });
        let basis = self.ctx.basis_at_level(level)?;

        let mut scratch = self.scratch();
        let sc = &mut *scratch;
        let (d0, d1, d2) = self.tensor_eval_with(sc, &a, &b, &basis)?;
        let raised = self.raise_digits(sc, &d2, rlk.key.alpha(), level)?;
        let (mut acc0, mut acc1) = self.kskip_accumulate(sc, &raised, &rlk.key, level, None)?;

        // Absorb P·d into the accumulators in the evaluation domain, before the accumulator
        // inverse: P·d ≡ 0 on every P limb, so only the Q rows change, and
        // ModDown(acc + P·d) = ModDown(acc) + d exactly — which lets the fused plan divide
        // the whole sum by P·q_level in one conversion while d0/d1 never pay an inverse NTT.
        let p_mod_q = self.ctx.p_mod_q_constants(level)?;
        self.absorb_p_times(&mut acc0, &d0, &basis, &p_mod_q);
        self.absorb_p_times(&mut acc1, &d1, &basis, &p_mod_q);
        self.invert_accumulators(&mut acc0, &mut acc1, &raised.basis);
        raised.recycle_into(sc);
        sc.recycle(d0);
        sc.recycle(d1);
        sc.recycle(d2);

        let fused = self.ctx.mod_down_rescale_plan(level)?;
        let mut c0 = sc.lease_zero(a.c0.degree(), 0, Representation::Coefficient);
        let mut c1 = sc.lease_zero(a.c0.degree(), 0, Representation::Coefficient);
        fused.apply_into(&acc0, &mut sc.convert, &mut c0)?;
        fused.apply_into(&acc1, &mut sc.convert, &mut c1)?;
        sc.recycle(acc0);
        sc.recycle(acc1);
        let prime = self.ctx.rescale_prime(level) as f64;
        Ok(Ciphertext::from_parts(
            c0,
            c1,
            a.scale * b.scale / prime,
            level - 1,
        ))
    }

    /// Squares a ciphertext (with relinearisation, no rescale).
    ///
    /// # Errors
    ///
    /// Propagates multiplication errors.
    pub fn square(&self, a: &Ciphertext, rlk: &RelinearizationKey) -> Result<Ciphertext> {
        self.multiply(a, a, rlk)
    }

    /// Rescales by the current level's prime: the level drops by one and the scale is divided
    /// by `q_level`. Rescaling is a genuine coefficient boundary (the centred division needs
    /// coefficient data), so an eval-resident input is converted first and the result is in
    /// coefficient form.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at level 0.
    pub fn rescale(&self, a: &Ciphertext) -> Result<Ciphertext> {
        if a.level == 0 {
            return Err(CkksError::LevelExhausted {
                operation: "rescale",
            });
        }
        let a = self.coefficient_input(a)?;
        self.record(HeOp::Rescale { level: a.level });
        let basis = self.ctx.basis_at_level(a.level)?;
        let prime = self.ctx.rescale_prime(a.level) as f64;
        let c0 = ops::rescale(&a.c0, &basis)?;
        let c1 = ops::rescale(&a.c1, &basis)?;
        Ok(Ciphertext::from_parts(c0, c1, a.scale / prime, a.level - 1))
    }

    /// Drops a ciphertext to a lower level without rescaling (the scale is unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelMismatch`] if the target level is higher than the current one.
    pub fn mod_drop_to_level(&self, a: &Ciphertext, level: usize) -> Result<Ciphertext> {
        if level > a.level {
            return Err(CkksError::LevelMismatch {
                left: a.level,
                right: level,
            });
        }
        if level == a.level {
            return Ok(a.clone());
        }
        Ok(Ciphertext::from_parts(
            a.c0.prefix(level + 1)?,
            a.c1.prefix(level + 1)?,
            a.scale,
            level,
        ))
    }

    /// Brings a ciphertext to the target scale exactly by multiplying with the constant `1`
    /// encoded at the appropriate scale and rescaling (consumes one level).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at level 0 or encoding errors if the required
    /// adjustment factor is out of range.
    pub fn match_scale(&self, a: &Ciphertext, target_scale: f64) -> Result<Ciphertext> {
        if (a.scale / target_scale - 1.0).abs() < SCALE_TOLERANCE {
            let mut out = a.clone();
            out.scale = target_scale;
            return Ok(out);
        }
        if a.level == 0 {
            return Err(CkksError::LevelExhausted {
                operation: "match_scale",
            });
        }
        let prime = self.ctx.rescale_prime(a.level) as f64;
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
        // The achieved scale differs from the target only by the rounding of enc_scale;
        // declare the exact target to keep downstream additions well-typed. The relative error
        // introduced is at most 0.5/enc_scale.
        rescaled.scale = target_scale;
        Ok(rescaled)
    }

    /// Brings two ciphertexts to a common level and scale so they can be added.
    ///
    /// # Errors
    ///
    /// Propagates level/scale adjustment errors.
    pub fn align_for_addition(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
    ) -> Result<(Ciphertext, Ciphertext)> {
        let (a, b) = self.align_levels(a, b)?;
        let (mut a, mut b) = (a.into_owned(), b.into_owned());
        if (a.scale / b.scale - 1.0).abs() >= SCALE_TOLERANCE {
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

    // ------------------------------------------------------------------ Galois operations

    /// Rotates the slots left by `steps` positions (`out[i] = in[i + steps mod n]`).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] if the Galois key for this rotation is absent.
    pub fn rotate(&self, a: &Ciphertext, steps: usize, keys: &GaloisKeys) -> Result<Ciphertext> {
        let slots = self.ctx.slot_count();
        let steps = steps % slots;
        if steps == 0 {
            return Ok(a.clone());
        }
        let rotated = self.rotate_unrecorded(a, steps, keys)?;
        self.record(HeOp::Rotate { level: a.level });
        Ok(rotated)
    }

    /// Rotates the slots left by `steps` with an explicitly supplied switching key — the
    /// serving-side entry point where keys come from a [`crate::KeyProvider`] rather than a
    /// resident [`GaloisKeys`] collection. Identical semantics (and identical recorded trace)
    /// to [`Self::rotate`]; the caller is responsible for the key matching the rotation.
    ///
    /// # Errors
    ///
    /// Propagates representation/level errors from the Galois application.
    pub fn rotate_with_key(
        &self,
        a: &Ciphertext,
        steps: usize,
        key: &SwitchingKey,
    ) -> Result<Ciphertext> {
        let slots = self.ctx.slot_count();
        let steps = steps % slots;
        if steps == 0 {
            return Ok(a.clone());
        }
        let element = galois_element_for_rotation(self.ctx.degree(), steps);
        let rotated = self.apply_galois(a, element, key)?;
        self.record(HeOp::Rotate { level: a.level });
        Ok(rotated)
    }

    /// Conjugates every slot with an explicitly supplied switching key (the serving-side
    /// counterpart of [`Self::conjugate`], same semantics and recorded trace).
    ///
    /// # Errors
    ///
    /// Propagates representation/level errors from the Galois application.
    pub fn conjugate_with_key(&self, a: &Ciphertext, key: &SwitchingKey) -> Result<Ciphertext> {
        let element = galois_element_for_conjugation(self.ctx.degree());
        let conjugated = self.apply_galois(a, element, key)?;
        self.record(HeOp::Conjugate { level: a.level });
        Ok(conjugated)
    }

    /// Rotates the slots left by `steps`, declaring that the rotation shares a key-switch
    /// decomposition with a previous rotation *of the same ciphertext* (hoisting, Bossuat et
    /// al.). The software reference still executes a full independent rotation — only the
    /// emitted trace op differs ([`fab_trace::HeOp::RotateHoisted`]), because on FAB the
    /// shared decomposition is what the scheduler exploits. Callers are responsible for the
    /// sharing claim being structurally true (same source ciphertext, same level).
    ///
    /// # Errors
    ///
    /// Same as [`Self::rotate`].
    pub fn rotate_hoisted(
        &self,
        a: &Ciphertext,
        steps: usize,
        keys: &GaloisKeys,
    ) -> Result<Ciphertext> {
        let slots = self.ctx.slot_count();
        let steps = steps % slots;
        if steps == 0 {
            return Ok(a.clone());
        }
        let rotated = self.rotate_unrecorded(a, steps, keys)?;
        self.record(HeOp::RotateHoisted { level: a.level });
        Ok(rotated)
    }

    /// Rotates one ciphertext by every step in `steps` while performing the key-switch
    /// Decomp → ModUp **and the forward NTTs once** for the whole batch (hoisting, Bossuat et
    /// al.): the raised digits of `c1` are computed and transformed up front, and each
    /// rotation only pays an evaluation-domain permutation (applied on the fly inside the
    /// KSKIP gather — see [`fab_math::EvalAutomorphismMap`]), the u128 inner product with its
    /// own key, and the inverse NTT + ModDown. The per-rotation forward transforms of the
    /// coefficient-domain path were audited redundant and are eliminated: a batch of `M`
    /// rotations now performs `β·(ℓ+1+k) + M·2·(ℓ+1+k)` transforms instead of
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
    /// Returns [`CkksError::MissingKey`] if any step's Galois key is absent.
    pub fn rotate_hoisted_batch(
        &self,
        a: &Ciphertext,
        steps: &[usize],
        keys: &GaloisKeys,
    ) -> Result<Vec<Ciphertext>> {
        let slots = self.ctx.slot_count();
        if steps.iter().all(|s| s % slots == 0) {
            return Ok(steps.iter().map(|_| a.clone()).collect());
        }
        let a = self.coefficient_input(a)?;
        let a = a.as_ref();
        let level = a.level;
        let degree = a.c1.degree();
        let q_basis = self.ctx.basis_at_level(level)?;
        let alpha = self.ctx.params().alpha();

        let mut scratch = self.scratch();
        let sc = &mut *scratch;

        // Decomp + ModUp + forward NTT of c1, shared by every rotation in the batch.
        let raised = self.raise_digits(sc, &a.c1, alpha, level)?;
        let down = self.ctx.mod_down_plan(level)?;
        let mut out = Vec::with_capacity(steps.len());
        let mut first = true;
        for &s in steps {
            let st = s % slots;
            if st == 0 {
                out.push(a.clone());
                continue;
            }
            let element = galois_element_for_rotation(self.ctx.degree(), st);
            let key = keys.get(element).ok_or_else(|| CkksError::MissingKey {
                description: format!("rotation by {st} (galois element {element})"),
            })?;
            let eval_map = self.ctx.eval_automorphism_map(element)?;
            let (mut acc0, mut acc1) =
                self.kskip_accumulate(sc, &raised, key, level, Some(&eval_map))?;
            self.invert_accumulators(&mut acc0, &mut acc1, &raised.basis);
            let mut k0 = sc.lease_zero(degree, 0, Representation::Coefficient);
            let mut k1 = sc.lease_zero(degree, 0, Representation::Coefficient);
            down.apply_into(&acc0, &mut sc.convert, &mut k0)?;
            down.apply_into(&acc1, &mut sc.convert, &mut k1)?;
            sc.recycle(acc0);
            sc.recycle(acc1);
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

    fn rotate_unrecorded(
        &self,
        a: &Ciphertext,
        steps: usize,
        keys: &GaloisKeys,
    ) -> Result<Ciphertext> {
        let element = galois_element_for_rotation(self.ctx.degree(), steps);
        let key = keys.get(element).ok_or_else(|| CkksError::MissingKey {
            description: format!("rotation by {steps} (galois element {element})"),
        })?;
        self.apply_galois(a, element, key)
    }

    /// Complex-conjugates every slot.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] if the conjugation key is absent.
    pub fn conjugate(&self, a: &Ciphertext, keys: &GaloisKeys) -> Result<Ciphertext> {
        let element = galois_element_for_conjugation(self.ctx.degree());
        let key = keys.get(element).ok_or_else(|| CkksError::MissingKey {
            description: "conjugation".into(),
        })?;
        let conjugated = self.apply_galois(a, element, key)?;
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

    // ------------------------------------------------------------------ key switching core

    /// Hybrid key switch of a single polynomial `d` at `level`: Decomp → ModUp → KSKIP
    /// (inner product with the key) → ModDown. Returns the pair `(k_0, k_1)` over `Q_level`
    /// in coefficient form.
    ///
    /// **Dual-form entry point**: `d`'s domain tag selects the seam. A coefficient-form
    /// operand runs the classic transform-minimal pipeline (`β·(ℓ+1+k)` forwards). An
    /// **evaluation-form** operand — the tensor product `d2` of a multiplication, which the
    /// PR 4 seam used to inverse-transform only for ModUp to re-forward the very same rows —
    /// reuses its rows directly as the digits' own raised rows and pays one batched inverse
    /// for the ModUp conversions instead: `β·(ℓ+1+k) − (ℓ+1)` forwards and `ℓ+1` extra
    /// inverses (`accounting::key_switch_dual`). Both entries are bit-for-bit identical to
    /// [`Evaluator::key_switch_reference`], which keeps the PR 3 per-digit eager algorithm as
    /// the benchmarked baseline.
    ///
    /// The KSKIP inner product sums the raw 64×64→128-bit products of *all* digits into
    /// per-coefficient u128 accumulators, reducing **once** per coefficient instead of once
    /// per digit (`fab_rns::kskip`).
    ///
    /// # Errors
    ///
    /// Propagates RNS kernel errors.
    pub fn key_switch(
        &self,
        d: &RnsPolynomial,
        key: &SwitchingKey,
        level: usize,
    ) -> Result<(RnsPolynomial, RnsPolynomial)> {
        let mut scratch = self.scratch();
        self.key_switch_with(&mut scratch, d, key, level)
    }

    /// Key-switch core operating on an already-locked scratch arena (so composite operations
    /// like `multiply` hold the lock once). Every temporary is leased and recycled; the
    /// returned pair keeps its leased buffers (the caller recycles or moves them on).
    fn key_switch_with(
        &self,
        sc: &mut Scratch,
        d: &RnsPolynomial,
        key: &SwitchingKey,
        level: usize,
    ) -> Result<(RnsPolynomial, RnsPolynomial)> {
        let raised = self.raise_digits(sc, d, key.alpha(), level)?;
        let (mut acc0, mut acc1) = self.kskip_accumulate(sc, &raised, key, level, None)?;
        self.invert_accumulators(&mut acc0, &mut acc1, &raised.basis);
        raised.recycle_into(sc);
        let down = self.ctx.mod_down_plan(level)?;
        let degree = d.degree();
        let mut k0 = sc.lease_zero(degree, 0, Representation::Coefficient);
        let mut k1 = sc.lease_zero(degree, 0, Representation::Coefficient);
        down.apply_into(&acc0, &mut sc.convert, &mut k0)?;
        down.apply_into(&acc1, &mut sc.convert, &mut k1)?;
        sc.recycle(acc0);
        sc.recycle(acc1);
        Ok((k0, k1))
    }

    /// The PR 3 key-switch algorithm — per-digit sequential ModUp → NTT → **eager** KSKIP
    /// (one Barrett reduction per digit per coefficient) → ModDown — kept verbatim as the
    /// bitwise baseline for the lazy pipeline, exactly like `NttTable::forward_reference` is
    /// kept for the lazy NTT: property tests pin [`Evaluator::key_switch`] to it bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates RNS kernel errors.
    pub fn key_switch_reference(
        &self,
        d: &RnsPolynomial,
        key: &SwitchingKey,
        level: usize,
    ) -> Result<(RnsPolynomial, RnsPolynomial)> {
        self.validate_switching_key(key, level)?;
        let mut scratch = self.scratch();
        let sc = &mut *scratch;
        let raised = self.ctx.raised_basis_at_level(level)?;
        let p_limbs = self.ctx.p_basis().len();
        let alpha = key.alpha();
        let limbs = level + 1;
        let beta = limbs.div_ceil(alpha);
        let degree = d.degree();
        let key_map = key_limb_map(limbs, self.ctx.q_basis().len(), p_limbs);

        let mut acc0 = sc.lease_zero(degree, raised.len(), Representation::Evaluation);
        let mut acc1 = sc.lease_zero(degree, raised.len(), Representation::Evaluation);
        let mut digit = sc.lease_zero(degree, 0, Representation::Coefficient);
        let mut extended = sc.lease_zero(degree, 0, Representation::Coefficient);

        for j in 0..beta {
            let start = j * alpha;
            let end = ((j + 1) * alpha).min(limbs);
            // Decomp: take the digit's limbs.
            digit.copy_limbs_from(d, start..end)?;
            // ModUp: extend to Q_level ∪ P through the cached per-digit plan.
            let plan = self.ctx.mod_up_plan(level, start, end - start)?;
            plan.apply_into(&digit, &mut sc.convert, &mut extended)?;
            extended.to_evaluation(&raised);
            // KSKIP: accumulate the inner product with the key; the limb map picks the live
            // limbs straight out of the full-basis key, so no restricted copy is built.
            let (b_full, a_full) = key.component(j);
            acc0.add_mul_limb_mapped(&extended, b_full, &key_map, &raised)?;
            acc1.add_mul_limb_mapped(&extended, a_full, &key_map, &raised)?;
        }
        sc.recycle(digit);
        sc.recycle(extended);

        acc0.to_coefficient(&raised);
        acc1.to_coefficient(&raised);
        // ModDown: divide by P through the cached plan.
        let down = self.ctx.mod_down_plan(level)?;
        let mut k0 = sc.lease_zero(degree, 0, Representation::Coefficient);
        let mut k1 = sc.lease_zero(degree, 0, Representation::Coefficient);
        down.apply_into(&acc0, &mut sc.convert, &mut k0)?;
        down.apply_into(&acc1, &mut sc.convert, &mut k1)?;
        sc.recycle(acc0);
        sc.recycle(acc1);
        Ok((k0, k1))
    }

    /// Decomp + ModUp + batched forward NTT of every digit of `d`, the front half of the
    /// transform-minimal key switch (shared verbatim by hoisted rotation batches, which pay
    /// it **once** for the whole batch).
    ///
    /// Work is flattened into row-level job lists so one `fab_par` fan-out covers all β
    /// digits at once — the digit-parallel schedule of the ROADMAP item: hoisted products
    /// per digit row, then every converted/copied output row, each forward-transformed lazily
    /// in the same job. Outputs stay in the lazy `[0, 4q)` evaluation domain; the u128 KSKIP
    /// absorbs the laziness in its single end reduction, so the correction sweeps between
    /// ModUp and KSKIP are eliminated (the audited-redundant passes of the eager path).
    fn raise_digits(
        &self,
        sc: &mut Scratch,
        d: &RnsPolynomial,
        alpha: usize,
        level: usize,
    ) -> Result<RaisedDigits> {
        let limbs = level + 1;
        // `d` must carry (at least) the level's limbs at the ring degree. Both domains are
        // accepted — the tag selects the seam:
        //
        // * **coefficient** (classic): every digit row is lifted + forward-transformed
        //   (`limbs` of the `β·raised` forwards are spent re-transforming rows a tensor may
        //   just have inverse-transformed);
        // * **evaluation** (dual-form): the rows are reused *verbatim* as the digits' own
        //   raised rows (zero forwards — the ROADMAP "multiply dual-form" lever), and one
        //   batched inverse of the `limbs` rows feeds the ModUp conversions, which are
        //   coefficient-domain by nature (CRT lifting sums residues across moduli).
        if d.limb_count() < limbs {
            return Err(fab_rns::RnsError::LimbOutOfRange {
                requested: limbs,
                available: d.limb_count(),
            }
            .into());
        }
        if d.degree() != self.ctx.degree() {
            return Err(fab_rns::RnsError::Mismatch {
                reason: format!(
                    "key-switch operand degree {} does not match ring degree {}",
                    d.degree(),
                    self.ctx.degree()
                ),
            }
            .into());
        }
        let beta = limbs.div_ceil(alpha);
        let degree = d.degree();
        let basis = self.ctx.raised_basis_at_level(level)?;
        let raised_limbs = basis.len();

        let mut ranges = Vec::with_capacity(beta);
        let mut plans = Vec::with_capacity(beta);
        for j in 0..beta {
            let start = j * alpha;
            let end = ((j + 1) * alpha).min(limbs);
            ranges.push((start, end));
            plans.push(self.ctx.mod_up_plan(level, start, end - start)?);
        }

        // Dual-form seam: an evaluation-domain operand pays one batched inverse of its
        // `limbs` rows to feed the conversions (`to_coefficient` meters it), while its
        // original rows skip the Lift forwards entirely.
        let dual = d.representation() == Representation::Evaluation;
        let d_coeff_lease: Option<RnsPolynomial> = if dual {
            let mut c = sc.lease_zero(degree, 0, Representation::Coefficient);
            c.copy_limbs_from(d, 0..limbs)?;
            c.to_coefficient(&basis);
            Some(c)
        } else {
            None
        };
        let d_coeff: &RnsPolynomial = d_coeff_lease.as_ref().unwrap_or(d);

        // Phase 1 (digit-parallel): hoisted conversion products, one job per digit source row.
        if sc.hoisted.len() < beta {
            sc.hoisted.resize_with(beta, Vec::new);
        }
        for (j, buf) in sc.hoisted.iter_mut().take(beta).enumerate() {
            let (start, end) = ranges[j];
            buf.resize(degree * (end - start), 0);
        }
        {
            let mut jobs = Vec::with_capacity(limbs);
            for (j, buf) in sc.hoisted.iter_mut().take(beta).enumerate() {
                for (i, row) in buf.chunks_mut(degree).enumerate() {
                    jobs.push((j, i, row));
                }
            }
            let plans = &plans;
            let ranges = &ranges;
            fab_rns::metering::add_bytes(fab_rns::metering::bytes::hoisted_products(degree, limbs));
            fab_par::par_jobs(jobs, |(j, i, row)| {
                let converter = plans[j]
                    .converter()
                    .expect("key-switch ModUp always has extension targets");
                converter.hoisted_product_row(i, d_coeff.limb(ranges[j].0 + i), row);
            });
        }

        // Phase 2 (batched): every output row of every digit — digit rows lifted from `d`
        // (or, in the dual-form seam, copied from the evaluation-domain operand without any
        // transform), the rest produced by lazy conversion — forward-transformed in the same
        // job. Coefficient operands pay β·(ℓ+1+k) forwards (the classic closed-form minimum);
        // evaluation operands pay β·(ℓ+1+k) − (ℓ+1), because the digits' own rows are reused.
        let mut d_eval = sc.lease_zero(degree, limbs, Representation::Evaluation);
        if dual {
            d_eval.copy_limbs_from(d, 0..limbs)?;
        }
        let mut converted: Vec<RnsPolynomial> = plans
            .iter()
            .map(|p| {
                sc.lease_zero(
                    degree,
                    p.conversion_rows().len(),
                    Representation::Evaluation,
                )
            })
            .collect();
        {
            enum RowJob<'a> {
                /// Lift a digit row of `d` and transform it (shared by its digit).
                Lift {
                    src: &'a [u64],
                    table: &'a fab_math::NttTable,
                    out: &'a mut [u64],
                },
                /// Convert one extension row of one digit (lazy, no correction) + transform.
                Convert {
                    plan: &'a ops::ModUpPlan,
                    hoisted: &'a [u64],
                    target: usize,
                    table: &'a fab_math::NttTable,
                    out: &'a mut [u64],
                },
            }
            let mut jobs = Vec::with_capacity(beta * raised_limbs);
            if !dual {
                for (i, out) in d_eval.data_mut().chunks_mut(degree).enumerate() {
                    jobs.push(RowJob::Lift {
                        src: d.limb(i),
                        table: basis.table(i),
                        out,
                    });
                }
            }
            for (j, poly) in converted.iter_mut().enumerate() {
                let plan = plans[j].as_ref();
                let hoisted = &sc.hoisted[j];
                for (target, out) in poly.data_mut().chunks_mut(degree).enumerate() {
                    jobs.push(RowJob::Convert {
                        plan,
                        hoisted,
                        target,
                        table: basis.table(plan.conversion_rows()[target]),
                        out,
                    });
                }
            }
            fab_rns::metering::add_forward(jobs.len());
            {
                use fab_rns::metering::bytes;
                let mut cost = fab_rns::metering::ByteCounts::default();
                if !dual {
                    cost += bytes::ntt_forward_lazy(degree).times(limbs as u64);
                }
                for (j, plan) in plans.iter().enumerate() {
                    let len = ranges[j].1 - ranges[j].0;
                    cost += (bytes::convert_row_lazy(degree, len)
                        + bytes::ntt_forward_lazy(degree))
                    .times(plan.conversion_rows().len() as u64);
                }
                fab_rns::metering::add_bytes(cost);
            }
            fab_par::par_jobs(jobs, |job| match job {
                RowJob::Lift { src, table, out } => {
                    out.copy_from_slice(src);
                    table.forward_lazy(out);
                }
                RowJob::Convert {
                    plan,
                    hoisted,
                    target,
                    table,
                    out,
                } => {
                    plan.converter()
                        .expect("conversion rows imply a converter")
                        .accumulate_target_limb_lazy_into(hoisted, out.len(), target, out);
                    table.forward_lazy(out);
                }
            });
        }
        if let Some(c) = d_coeff_lease {
            sc.recycle(c);
        }

        Ok(RaisedDigits {
            basis,
            d_eval,
            converted,
            ranges,
        })
    }

    /// The u128 lazy KSKIP accumulation: `Σ_j ext_j · ksk_j` over all β digits into
    /// per-coefficient u128 accumulators (fold-guarded against overflow), reduced once per
    /// coefficient into the lazy `[0, 2q)` domain. The returned pair is still in
    /// **evaluation** representation over `Q_level ∪ P`; callers either invert it straight
    /// away ([`Evaluator::invert_accumulators`]) or first absorb evaluation-domain addends
    /// ([`Evaluator::absorb_p_times`] — the multiply seam) so the addends ride the
    /// accumulator inverse for free instead of paying their own.
    ///
    /// `perm` applies an evaluation-domain automorphism gather to the raised digits on the
    /// fly (hoisted rotation batches), so no rotated copy is ever materialised. Work fans out
    /// one job per raised limb; each digit's contribution is summed in fixed digit order, so
    /// results are bitwise identical at any `FAB_THREADS`.
    fn kskip_accumulate(
        &self,
        sc: &mut Scratch,
        raised: &RaisedDigits,
        key: &SwitchingKey,
        level: usize,
        perm: Option<&fab_math::EvalAutomorphismMap>,
    ) -> Result<(RnsPolynomial, RnsPolynomial)> {
        self.validate_switching_key(key, level)?;
        let limbs = level + 1;
        let degree = raised.d_eval.degree();
        let raised_limbs = raised.basis.len();
        let key_map = key_limb_map(limbs, self.ctx.q_basis().len(), self.ctx.p_basis().len());
        let perm = perm.map(fab_math::EvalAutomorphismMap::source);

        let mut acc0 = sc.lease_zero(degree, raised_limbs, Representation::Evaluation);
        let mut acc1 = sc.lease_zero(degree, raised_limbs, Representation::Evaluation);
        sc.acc_b.clear();
        sc.acc_b.resize(raised_limbs * degree, 0);
        sc.acc_a.clear();
        sc.acc_a.resize(raised_limbs * degree, 0);
        {
            use fab_rns::metering::bytes;
            let beta = raised.ranges.len();
            let mut cost = fab_rns::metering::ByteCounts::default();
            for r in 0..raised_limbs {
                let capacity = raised.basis.modulus(r).u128_mac_capacity();
                cost += bytes::kskip_row(
                    degree,
                    beta,
                    bytes::fold_count(beta, capacity),
                    perm.is_some(),
                );
            }
            fab_rns::metering::add_bytes(cost);
        }
        {
            let jobs: Vec<_> = sc
                .acc_b
                .chunks_mut(degree)
                .zip(sc.acc_a.chunks_mut(degree))
                .zip(acc0.data_mut().chunks_mut(degree))
                .zip(acc1.data_mut().chunks_mut(degree))
                .enumerate()
                .map(|(r, (((ub, ua), ob), oa))| (r, ub, ua, ob, oa))
                .collect();
            fab_par::par_jobs(jobs, |(r, acc_b, acc_a, out_b, out_a)| {
                let modulus = raised.basis.modulus(r);
                let digit_rows = raised.ranges.iter().enumerate().map(|(j, &(start, end))| {
                    let x = if r >= start && r < end {
                        raised.d_eval.limb(r)
                    } else {
                        // Converted rows skip the digit's own contiguous limb block.
                        let t = if r < start { r } else { r - (end - start) };
                        raised.converted[j].limb(t)
                    };
                    let (b_full, a_full) = key.component(j);
                    fab_rns::kskip::DigitRows {
                        x,
                        key_b: b_full.limb(key_map[r]),
                        key_a: a_full.limb(key_map[r]),
                    }
                });
                // All digits accumulate under the shared fold schedule; the single [0, 2q)
                // reduction per coefficient feeds the inverse NTT.
                fab_rns::kskip::accumulate_digits(
                    modulus,
                    modulus.u128_mac_capacity(),
                    digit_rows,
                    perm,
                    fab_rns::kskip::RowBuffers {
                        acc_b,
                        acc_a,
                        out_b,
                        out_a,
                    },
                );
            });
        }
        Ok((acc0, acc1))
    }

    /// Batched inverse NTTs of both KSKIP accumulators (`2·(ℓ+1+k)` rows, the closed-form
    /// minimum), canonicalising every coefficient into `[0, q)` — which is what makes every
    /// evaluation-domain rearrangement upstream (dual-form digit reuse, `P·d` absorption,
    /// eval-resident partial sums) bitwise invisible downstream.
    fn invert_accumulators(
        &self,
        acc0: &mut RnsPolynomial,
        acc1: &mut RnsPolynomial,
        basis: &RnsBasis,
    ) {
        let degree = acc0.degree();
        let mut jobs = Vec::with_capacity(acc0.limb_count() + acc1.limb_count());
        for poly in [&mut *acc0, &mut *acc1] {
            for (r, row) in poly.data_mut().chunks_mut(degree).enumerate() {
                jobs.push((basis.table(r), row));
            }
        }
        fab_rns::metering::add_inverse(jobs.len());
        fab_rns::metering::add_bytes(
            fab_rns::metering::bytes::ntt_inverse(degree).times(jobs.len() as u64),
        );
        fab_par::par_jobs(jobs, |(table, row)| table.inverse(row));
        acc0.set_representation(Representation::Coefficient);
        acc1.set_representation(Representation::Coefficient);
    }

    /// Absorbs `P·d` into a KSKIP accumulator **in the evaluation domain**, before the
    /// accumulator inverse: `ModDown(acc + P·d) = ModDown(acc) + d` exactly (the `P` rows are
    /// untouched, and on each `q_i` row the added `P·d` term survives the `·P^{-1}` combine as
    /// `+d`), and the fused ModDown+rescale plan divides the same sum by `P·q_level`. Because
    /// the addition happens pre-inverse, `d` never pays its own inverse NTT — the tensor's
    /// `d0`/`d1` stay evaluation-resident from the pointwise products to this seam, which is
    /// where `multiply`/`multiply_rescale` drop `2·(ℓ+1)` inverses against the PR 4 pipeline.
    ///
    /// The accumulator rows arrive in the lazy `[0, 2q)` domain; absorbed rows are
    /// canonicalised on the way (lazy sum, two conditional subtractions), preserving the
    /// inverse NTT's `[0, 2q)` input invariant and the bitwise equality with the
    /// coefficient-domain path.
    fn absorb_p_times(
        &self,
        acc: &mut RnsPolynomial,
        d: &RnsPolynomial,
        basis: &RnsBasis,
        p_mod_q: &[(u64, u64)],
    ) {
        debug_assert_eq!(acc.representation(), Representation::Evaluation);
        debug_assert_eq!(d.representation(), Representation::Evaluation);
        let limbs = d.limb_count();
        let degree = d.degree();
        fab_rns::metering::add_bytes(fab_rns::metering::bytes::absorb(degree, limbs));
        fab_par::par_chunks_mut(&mut acc.data_mut()[..limbs * degree], degree, |i, row| {
            let qi = basis.modulus(i);
            let (p, p_shoup) = p_mod_q[i];
            let q = qi.value();
            // Lazy sum in `[0, 4q)`, then two branch-free conditional subtractions (`min`
            // against the wrapped difference): the branching form mispredicts on random
            // residues.
            for (x, &dv) in row.iter_mut().zip(d.limb(i)) {
                debug_assert!(*x < 2 * q);
                let sum = *x + qi.mul_shoup_lazy(dv, p, p_shoup);
                let sum = sum.min(sum.wrapping_sub(2 * q));
                *x = sum.min(sum.wrapping_sub(q));
            }
        });
    }

    // ------------------------------------------------------------------------- internals

    /// Both operands at the lower of their levels, borrowed when no limb has to be dropped.
    fn align_levels<'t>(
        &self,
        a: &'t Ciphertext,
        b: &'t Ciphertext,
    ) -> Result<(Cow<'t, Ciphertext>, Cow<'t, Ciphertext>)> {
        let level = a.level.min(b.level);
        let at_level = |ct: &'t Ciphertext| -> Result<Cow<'t, Ciphertext>> {
            Ok(if ct.level == level {
                Cow::Borrowed(ct)
            } else {
                Cow::Owned(self.mod_drop_to_level(ct, level)?)
            })
        };
        Ok((at_level(a)?, at_level(b)?))
    }

    fn check_scales(&self, a: f64, b: f64) -> Result<()> {
        if (a / b - 1.0).abs() >= SCALE_TOLERANCE {
            return Err(CkksError::ScaleMismatch { left: a, right: b });
        }
        Ok(())
    }
}

/// The limb map selecting the level-`limbs` live rows `[q_0 … q_{limbs-1}, p_0 … p_{k-1}]`
/// out of a full-basis key polynomial `[q_0 … q_L, p_0 … p_{k-1}]`.
fn key_limb_map(limbs: usize, total_q_limbs: usize, p_limbs: usize) -> Vec<usize> {
    (0..limbs)
        .chain(total_q_limbs..total_q_limbs + p_limbs)
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CkksParams, Decryptor, Encoder, Encryptor, KeyGenerator, SecretKey};
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    struct Fixture {
        ctx: Arc<CkksContext>,
        encoder: Encoder,
        encryptor: Encryptor,
        decryptor: Decryptor,
        evaluator: Evaluator,
        rlk: RelinearizationKey,
        gks: GaloisKeys,
        rng: ChaCha20Rng,
    }

    fn fixture() -> Fixture {
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(99);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
        let pk = keygen.public_key(&mut rng);
        let rlk = keygen.relinearization_key(&mut rng);
        let gks = keygen.galois_keys(&[1, 2, 5], true, &mut rng).unwrap();
        Fixture {
            ctx: ctx.clone(),
            encoder: Encoder::new(ctx.clone()),
            encryptor: Encryptor::new(ctx.clone(), pk),
            decryptor: Decryptor::new(ctx.clone(), sk),
            evaluator: Evaluator::new(ctx),
            rlk,
            gks,
            rng,
        }
    }

    fn sample_values(n: usize, seed: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 + seed) * 0.37).sin() * 2.0)
            .collect()
    }

    fn encrypt(f: &mut Fixture, values: &[f64], level: usize) -> Ciphertext {
        let scale = f.ctx.params().default_scale();
        let pt = f.encoder.encode_real(values, scale, level).unwrap();
        f.encryptor.encrypt(&pt, &mut f.rng).unwrap()
    }

    fn decrypt(f: &Fixture, ct: &Ciphertext) -> Vec<f64> {
        f.encoder.decode_real(&f.decryptor.decrypt(ct).unwrap())
    }

    #[test]
    fn homomorphic_addition_matches_plaintext() {
        let mut f = fixture();
        let a = sample_values(32, 0.0);
        let b = sample_values(32, 100.0);
        let ct_a = encrypt(&mut f, &a, 3);
        let ct_b = encrypt(&mut f, &b, 3);
        let sum = f.evaluator.add(&ct_a, &ct_b).unwrap();
        let decoded = decrypt(&f, &sum);
        for i in 0..32 {
            assert!((decoded[i] - (a[i] + b[i])).abs() < 1e-3);
        }
        let diff = f.evaluator.sub(&ct_a, &ct_b).unwrap();
        let decoded = decrypt(&f, &diff);
        for i in 0..32 {
            assert!((decoded[i] - (a[i] - b[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn addition_aligns_mismatched_levels() {
        let mut f = fixture();
        let a = sample_values(8, 1.0);
        let b = sample_values(8, 2.0);
        let ct_a = encrypt(&mut f, &a, 4);
        let ct_b = encrypt(&mut f, &b, 2);
        let sum = f.evaluator.add(&ct_a, &ct_b).unwrap();
        assert_eq!(sum.level(), 2);
        let decoded = decrypt(&f, &sum);
        for i in 0..8 {
            assert!((decoded[i] - (a[i] + b[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn scale_mismatch_is_rejected() {
        let mut f = fixture();
        let scale = f.ctx.params().default_scale();
        let pt_a = f.encoder.encode_real(&[1.0], scale, 2).unwrap();
        let pt_b = f.encoder.encode_real(&[1.0], scale * 2.0, 2).unwrap();
        let ct_a = f.encryptor.encrypt(&pt_a, &mut f.rng).unwrap();
        let ct_b = f.encryptor.encrypt(&pt_b, &mut f.rng).unwrap();
        assert!(matches!(
            f.evaluator.add(&ct_a, &ct_b),
            Err(CkksError::ScaleMismatch { .. })
        ));
    }

    #[test]
    fn plaintext_addition_and_subtraction() {
        let mut f = fixture();
        let a = sample_values(16, 3.0);
        let b = sample_values(16, 4.0);
        let scale = f.ctx.params().default_scale();
        let ct = encrypt(&mut f, &a, 3);
        let pt = f.encoder.encode_real(&b, scale, 3).unwrap();
        let sum = f.evaluator.add_plain(&ct, &pt).unwrap();
        let decoded = decrypt(&f, &sum);
        for i in 0..16 {
            assert!((decoded[i] - (a[i] + b[i])).abs() < 1e-3);
        }
        let diff = f.evaluator.sub_plain(&ct, &pt).unwrap();
        let decoded = decrypt(&f, &diff);
        for i in 0..16 {
            assert!((decoded[i] - (a[i] - b[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn add_scalar_shifts_every_slot() {
        let mut f = fixture();
        let a = sample_values(16, 5.0);
        let ct = encrypt(&mut f, &a, 2);
        let shifted = f
            .evaluator
            .add_scalar(&ct, Complex64::new(2.5, 0.0))
            .unwrap();
        let decoded = decrypt(&f, &shifted);
        for i in 0..16 {
            assert!((decoded[i] - (a[i] + 2.5)).abs() < 1e-3);
        }
    }

    #[test]
    fn plaintext_multiplication_with_rescale() {
        let mut f = fixture();
        let a = sample_values(16, 6.0);
        let b = sample_values(16, 7.0);
        let scale = f.ctx.params().default_scale();
        let ct = encrypt(&mut f, &a, 3);
        let pt = f.encoder.encode_real(&b, scale, 3).unwrap();
        let product = f.evaluator.multiply_plain(&ct, &pt).unwrap();
        assert!((product.scale() - scale * scale).abs() < 1.0);
        let rescaled = f.evaluator.rescale(&product).unwrap();
        assert_eq!(rescaled.level(), 2);
        let decoded = decrypt(&f, &rescaled);
        for i in 0..16 {
            assert!(
                (decoded[i] - a[i] * b[i]).abs() < 1e-2,
                "slot {i}: {} vs {}",
                decoded[i],
                a[i] * b[i]
            );
        }
    }

    #[test]
    fn ciphertext_multiplication_matches_plaintext_product() {
        let mut f = fixture();
        let a = sample_values(16, 8.0);
        let b = sample_values(16, 9.0);
        let ct_a = encrypt(&mut f, &a, 3);
        let ct_b = encrypt(&mut f, &b, 3);
        let product = f.evaluator.multiply_rescale(&ct_a, &ct_b, &f.rlk).unwrap();
        assert_eq!(product.level(), 2);
        let decoded = decrypt(&f, &product);
        for i in 0..16 {
            assert!(
                (decoded[i] - a[i] * b[i]).abs() < 1e-2,
                "slot {i}: {} vs {}",
                decoded[i],
                a[i] * b[i]
            );
        }
    }

    #[test]
    fn repeated_multiplication_consumes_levels() {
        let mut f = fixture();
        let a = vec![1.1f64; 8];
        let max_level = f.ctx.params().max_level;
        let mut ct = encrypt(&mut f, &a, max_level);
        let mut expected = 1.1f64;
        for _ in 0..3 {
            ct = f.evaluator.multiply_rescale(&ct, &ct, &f.rlk).unwrap();
            expected *= expected;
        }
        let decoded = decrypt(&f, &ct);
        for d in decoded.iter().take(8) {
            assert!((d - expected).abs() < 0.05, "{d} vs {expected}");
        }
        // Level must have dropped by 3.
        assert_eq!(ct.level(), f.ctx.params().max_level - 3);
    }

    #[test]
    fn multiply_at_level_zero_cannot_rescale() {
        let mut f = fixture();
        let ct = encrypt(&mut f, &[1.0], 0);
        assert!(matches!(
            f.evaluator.rescale(&ct),
            Err(CkksError::LevelExhausted { .. })
        ));
    }

    #[test]
    fn multiply_scalar_preserves_scale() {
        let mut f = fixture();
        let a = sample_values(8, 11.0);
        let ct = encrypt(&mut f, &a, 3);
        let scaled = f
            .evaluator
            .multiply_scalar(&ct, Complex64::new(0.5, 0.0))
            .unwrap();
        assert_eq!(scaled.level(), 2);
        assert!((scaled.scale() / ct.scale() - 1.0).abs() < 1e-6);
        let decoded = decrypt(&f, &scaled);
        for i in 0..8 {
            assert!((decoded[i] - a[i] * 0.5).abs() < 1e-3);
        }
    }

    #[test]
    fn rotation_moves_slots_left() {
        let mut f = fixture();
        let n = f.ctx.slot_count();
        let values: Vec<f64> = (0..n).map(|i| (i % 50) as f64 * 0.1).collect();
        let ct = encrypt(&mut f, &values, 3);
        for steps in [1usize, 2, 5] {
            let rotated = f.evaluator.rotate(&ct, steps, &f.gks).unwrap();
            let decoded = decrypt(&f, &rotated);
            for i in 0..64 {
                let expected = values[(i + steps) % n];
                assert!(
                    (decoded[i] - expected).abs() < 1e-2,
                    "steps {steps}, slot {i}: {} vs {expected}",
                    decoded[i]
                );
            }
        }
    }

    #[test]
    fn rotation_without_key_fails() {
        let mut f = fixture();
        let ct = encrypt(&mut f, &[1.0, 2.0], 2);
        assert!(matches!(
            f.evaluator.rotate(&ct, 3, &f.gks),
            Err(CkksError::MissingKey { .. })
        ));
    }

    #[test]
    fn conjugation_flips_imaginary_parts() {
        let mut f = fixture();
        let scale = f.ctx.params().default_scale();
        let values: Vec<Complex64> = (0..16)
            .map(|i| Complex64::new(i as f64 * 0.2, -(i as f64) * 0.1))
            .collect();
        let pt = f.encoder.encode(&values, scale, 3).unwrap();
        let ct = f.encryptor.encrypt(&pt, &mut f.rng).unwrap();
        let conj = f.evaluator.conjugate(&ct, &f.gks).unwrap();
        let decoded = f.encoder.decode(&f.decryptor.decrypt(&conj).unwrap());
        for i in 0..16 {
            assert!((decoded[i] - values[i].conj()).norm() < 1e-2);
        }
    }

    #[test]
    fn multiply_by_i_matches_scalar_multiplication() {
        let mut f = fixture();
        let scale = f.ctx.params().default_scale();
        let values: Vec<Complex64> = (0..16)
            .map(|i| Complex64::new(1.0 + i as f64 * 0.1, -0.5))
            .collect();
        let pt = f.encoder.encode(&values, scale, 2).unwrap();
        let ct = f.encryptor.encrypt(&pt, &mut f.rng).unwrap();
        let by_i = f.evaluator.multiply_by_i(&ct).unwrap();
        assert_eq!(by_i.level(), ct.level());
        let decoded = f.encoder.decode(&f.decryptor.decrypt(&by_i).unwrap());
        for i in 0..16 {
            let expected = values[i] * Complex64::i();
            assert!((decoded[i] - expected).norm() < 1e-2);
        }
    }

    #[test]
    fn match_scale_aligns_for_addition() {
        let mut f = fixture();
        let a = sample_values(8, 12.0);
        let b = sample_values(8, 13.0);
        let scale = f.ctx.params().default_scale();
        let ct_a = encrypt(&mut f, &a, 4);
        // Produce a ciphertext whose scale differs (product of two scales, then rescaled).
        let pt_b = f.encoder.encode_real(&b, scale, 4).unwrap();
        let ct_ab = f
            .evaluator
            .rescale(&f.evaluator.multiply_plain(&ct_a, &pt_b).unwrap())
            .unwrap();
        // ct_ab has scale ≈ Δ²/q3 which differs slightly from Δ.
        let ct_c = encrypt(&mut f, &a, 4);
        let (x, y) = f.evaluator.align_for_addition(&ct_ab, &ct_c).unwrap();
        let sum = f.evaluator.add(&x, &y).unwrap();
        let decoded = decrypt(&f, &sum);
        for i in 0..8 {
            let expected = a[i] * b[i] + a[i];
            assert!(
                (decoded[i] - expected).abs() < 1e-2,
                "slot {i}: {} vs {expected}",
                decoded[i]
            );
        }
    }

    #[test]
    fn recording_sink_captures_multiply_rescale_sequence() {
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let sink = fab_trace::RecordingSink::shared("ops");
        let evaluator = Evaluator::with_sink(ctx.clone(), sink.clone());
        let mut f = fixture();
        let a = sample_values(8, 20.0);
        let ct_a = encrypt(&mut f, &a, 3);
        let ct_b = encrypt(&mut f, &a, 3);
        // The fixture's keys belong to a different context instance but the parameters are
        // identical, so the instrumented evaluator can operate on its ciphertexts.
        let product = evaluator.multiply_rescale(&ct_a, &ct_b, &f.rlk).unwrap();
        assert_eq!(product.level(), 2);
        let trace = sink.take();
        assert_eq!(
            trace.ops,
            vec![
                fab_trace::HeOp::Multiply { level: 3 },
                fab_trace::HeOp::Rescale { level: 3 }
            ]
        );
        // add/sub record as Add at the aligned level.
        let _ = evaluator.add(&ct_a, &product).unwrap();
        assert_eq!(sink.take().ops, vec![fab_trace::HeOp::Add { level: 2 }]);
    }

    #[test]
    fn recording_sink_distinguishes_hoisted_rotations() {
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let sink = fab_trace::RecordingSink::shared("rotations");
        let evaluator = Evaluator::with_sink(ctx, sink.clone());
        let mut f = fixture();
        let values = sample_values(16, 21.0);
        let ct = encrypt(&mut f, &values, 3);

        // One full rotation, then two rotations sharing its decomposition.
        let r1 = evaluator.rotate(&ct, 1, &f.gks).unwrap();
        let r2 = evaluator.rotate_hoisted(&ct, 2, &f.gks).unwrap();
        let r5 = evaluator.rotate_hoisted(&ct, 5, &f.gks).unwrap();
        // Rotation by 0 (and multiples of the slot count) is free and unrecorded.
        let _ = evaluator.rotate(&ct, 0, &f.gks).unwrap();

        let trace = sink.take();
        assert_eq!(
            trace.ops,
            vec![
                fab_trace::HeOp::Rotate { level: 3 },
                fab_trace::HeOp::RotateHoisted { level: 3 },
                fab_trace::HeOp::RotateHoisted { level: 3 },
            ]
        );
        // The hoisted execution path is the same math: results decrypt correctly.
        for (steps, rotated) in [(1usize, &r1), (2, &r2), (5, &r5)] {
            let decoded = decrypt(&f, rotated);
            for i in 0..8 {
                // i + steps stays inside the 16 encoded slots for these cases.
                assert!(
                    (decoded[i] - values[i + steps]).abs() < 1e-2,
                    "steps {steps} slot {i}: {} vs {}",
                    decoded[i],
                    values[i + steps]
                );
            }
        }
    }

    #[test]
    fn hoisted_batch_shares_decomposition_and_matches_per_op_rotations() {
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let sink = fab_trace::RecordingSink::shared("batch");
        let evaluator = Evaluator::with_sink(ctx, sink.clone());
        let mut f = fixture();
        let values = sample_values(16, 23.0);
        let ct = encrypt(&mut f, &values, 3);

        // One shared Decomp → ModUp drives rotations by 1, 2 and 5; step 0 is a free clone.
        let batch = evaluator
            .rotate_hoisted_batch(&ct, &[1, 0, 2, 5], &f.gks)
            .unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(
            sink.take().ops,
            vec![
                fab_trace::HeOp::Rotate { level: 3 },
                fab_trace::HeOp::RotateHoisted { level: 3 },
                fab_trace::HeOp::RotateHoisted { level: 3 },
            ]
        );
        // Each batch output decrypts identically (within noise) to the per-op rotation.
        for (i, &steps) in [1usize, 0, 2, 5].iter().enumerate() {
            let reference = f.evaluator.rotate(&ct, steps, &f.gks).unwrap();
            let got = decrypt(&f, &batch[i]);
            let expected = decrypt(&f, &reference);
            for slot in 0..8 {
                assert!(
                    (got[slot] - expected[slot]).abs() < 1e-2,
                    "steps {steps} slot {slot}: {} vs {}",
                    got[slot],
                    expected[slot]
                );
            }
        }
        // A missing key fails the batch just like the per-op path.
        assert!(matches!(
            evaluator.rotate_hoisted_batch(&ct, &[1, 3], &f.gks),
            Err(CkksError::MissingKey { .. })
        ));
    }

    #[test]
    fn counting_sink_meters_without_recording_order() {
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let sink = fab_trace::CountingSink::shared();
        let evaluator = Evaluator::with_sink(ctx, sink.clone());
        let mut f = fixture();
        let values = sample_values(8, 22.0);
        let ct = encrypt(&mut f, &values, 3);
        let _ = evaluator.multiply_rescale(&ct, &ct, &f.rlk).unwrap();
        let _ = evaluator.rotate(&ct, 1, &f.gks).unwrap();
        let counts = sink.counts();
        assert_eq!(counts.multiply, 1);
        assert_eq!(counts.rescale, 1);
        assert_eq!(counts.rotate, 1);
        assert_eq!(counts.add, 0);
    }

    #[test]
    fn default_evaluator_sink_is_noop() {
        let f = fixture();
        assert!(!f.evaluator.sink().is_enabled());
    }

    #[test]
    fn worker_count_is_invisible_in_results() {
        // Limb partitioning is disjoint, so any FAB_THREADS setting must produce bitwise
        // identical ciphertexts — the determinism contract of fab-par.
        let mut f = fixture();
        let a = sample_values(16, 30.0);
        let b = sample_values(16, 31.0);
        let ct_a = encrypt(&mut f, &a, 3);
        let ct_b = encrypt(&mut f, &b, 3);
        let single = {
            fab_par::set_threads(1);
            let product = f.evaluator.multiply_rescale(&ct_a, &ct_b, &f.rlk).unwrap();
            f.evaluator.rotate(&product, 1, &f.gks).unwrap()
        };
        for workers in [2usize, 4] {
            fab_par::set_threads(workers);
            let product = f.evaluator.multiply_rescale(&ct_a, &ct_b, &f.rlk).unwrap();
            let rotated = f.evaluator.rotate(&product, 1, &f.gks).unwrap();
            assert_eq!(rotated.c0, single.c0, "c0 diverged at {workers} workers");
            assert_eq!(rotated.c1, single.c1, "c1 diverged at {workers} workers");
        }
        fab_par::set_threads(1);
    }

    #[test]
    fn negate_flips_sign() {
        let mut f = fixture();
        let a = sample_values(8, 14.0);
        let ct = encrypt(&mut f, &a, 2);
        let neg = f.evaluator.negate(&ct).unwrap();
        let decoded = decrypt(&f, &neg);
        for i in 0..8 {
            assert!((decoded[i] + a[i]).abs() < 1e-3);
        }
    }
}

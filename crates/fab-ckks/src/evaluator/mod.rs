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
//! allocating: leased flat buffers are reshaped in place ([`fab_rns::RnsPolynomial::reset`] /
//! [`fab_rns::RnsPolynomial::copy_from`]) and recycled when the operation completes, and the
//! cached per-level ModUp/ModDown plans on [`CkksContext`] remove all per-call constant
//! recomputation. Only the polynomials that escape into the returned [`Ciphertext`] keep
//! their buffers.
//!
//! ## Layout
//!
//! One `impl Evaluator`, split along its seams: this file holds the type, domain management,
//! ciphertext addition, rescale and mod-drop; `scratch` the arena; `key_switch` the digit
//! raise and the one key-switch back half; `multiply` the one multiplication pipeline;
//! `plain` plaintext and constant arithmetic; `galois` the one key-switched automorphism loop
//! (rotation, conjugation, the hoisted batch) and the monomial shift. The scale-management composites built on these (`multiply_scalar`, `match_scale`,
//! `align_for_addition`) are not here: they are written once, as provided methods of
//! [`crate::EvalBackend`], so the executor and the planner share them.

mod galois;
mod key_switch;
mod multiply;
mod plain;
mod scratch;

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use fab_rns::{ops, Domain, RnsBasis, RnsPolynomial};
use fab_trace::{noop_sink, HeOp, TraceSink};

use crate::{Ciphertext, CkksContext, CkksError, Encoder, Result};
use scratch::Scratch;

/// Relative tolerance used when checking that two scales are compatible for addition.
const SCALE_TOLERANCE: f64 = 1e-6;

/// Whether two scales are compatible for addition (equal within the relative tolerance) —
/// the one predicate behind every scale check of the evaluator, of the shadow planner that
/// must mirror its bookkeeping, and of the Chebyshev leaf's fused accumulation.
pub(crate) fn scales_match(a: f64, b: f64) -> bool {
    (a / b - 1.0).abs() < SCALE_TOLERANCE
}

/// [`scales_match`] as the [`CkksError::ScaleMismatch`] every addition reports.
pub(crate) fn check_scales(a: f64, b: f64) -> Result<()> {
    if !scales_match(a, b) {
        return Err(CkksError::ScaleMismatch { left: a, right: b });
    }
    Ok(())
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

    /// Homomorphic addition. Operands at different levels are aligned to the lower level;
    /// mixed-domain operands are aligned to `a`'s domain (the result keeps `a`'s form, so
    /// eval-resident accumulations stay eval-resident).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::ScaleMismatch`] if the scales differ by more than the tolerance.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        self.add_parts(a, b, RnsPolynomial::add)
    }

    /// Homomorphic subtraction (`a - b`). Domain handling as in [`Self::add`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::add`].
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        self.add_parts(a, b, RnsPolynomial::sub)
    }

    /// The one body of [`Self::add`] and [`Self::sub`]: `part` combines each pair of parts.
    fn add_parts(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        part: fn(&RnsPolynomial, &RnsPolynomial, &RnsBasis) -> fab_rns::Result<RnsPolynomial>,
    ) -> Result<Ciphertext> {
        let (a, b) = self.align_levels(a, b)?;
        let b = self.match_form(&a, b)?;
        check_scales(a.scale, b.scale)?;
        self.record(HeOp::Add { level: a.level });
        let basis = self.ctx.basis_at_level(a.level)?;
        Ok(Ciphertext::from_parts(
            part(&a.c0, &b.c0, &basis)?,
            part(&a.c1, &b.c1, &basis)?,
            a.scale,
            a.level,
        ))
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
}

#[cfg(test)]
mod tests;

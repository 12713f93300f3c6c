//! CKKS bootstrapping: ModRaise → CoeffToSlot → EvalMod → SlotToCoeff.
//!
//! This is the operation FAB accelerates (Section 2.1.3 of the paper). The pipeline here is the
//! software-reference implementation: it raises an exhausted ciphertext back to the full
//! modulus, homomorphically applies the inverse encoding FFT so the coefficients appear in the
//! slots, removes the `q_0·I` multiples with EvalMod, and applies the forward encoding FFT to
//! return to coefficient form. The linear transforms are factored
//! into `ﬀtIter` groups exactly as the paper's design-space study (Figure 2) parameterises, and
//! every stage carries a [`crate::BsgsPlan`]: the software pipeline executes the same
//! baby-step/giant-step + hoisting rotation schedule the FAB FPGA runs. The recorded
//! execution and the planned trace ([`Bootstrapper::predicted_trace`]) agree op for op, and the
//! `fab-core` accelerator workload is that planned trace, taken from a plan-only bootstrapper
//! ([`Bootstrapper::plan_only`]) that knows its stages by their offsets alone.
//!
//! Because the bootstrapper holds its stage transforms for its whole lifetime, the
//! eval-resident BSGS execution warms each stage's **NTT-cached diagonal plaintexts** once
//! (on the first bootstrap, per level) and then performs zero plaintext forward transforms
//! on every further iteration — the cache is exactly the "reused across every apply and
//! every bootstrap iteration" term of [`crate::accounting::bsgs_stage_eval`]. EvalMod's
//! constants (Chebyshev coefficients, scale matching) are per-limb scalars and pay no
//! transforms at all.
//!
//! ## EvalMod
//!
//! EvalMod is the cosine with double-angle range reduction of Han–Ki (CT-RSA 2020) and
//! Bossuat et al.: a Chebyshev series of `cos(2π((K+1)t − 1/4)/2^r)` on `[-1, 1]`, then `r`
//! steps `c ← 2c² − 1`, which leave `cos(2π((K+1)t − 1/4)) = sin(2π(K+1)t)`. The series only
//! has to follow `(K+1)/2^r` periods, so its degree follows the reduced range. The `1/(2π)`
//! that turns the sine back into the message is folded into the SlotToCoeff matrices.
//! [`Bootstrapper::new`] picks `(r, d)` with `r ≤ 4` and `d = 2^k − 1` at most
//! [`BootstrapParams::eval_mod_degree`]: of the pairs whose fitted error, amplified by up to 4
//! per double-angle step, stays within `2^-32`, the one whose evaluation plans the fewest
//! ciphertext multiplies (the smaller `r` on a tie). Its series runs with exact scales
//! ([`ChebyshevSeries::evaluate_with`]); without them the relabelled scale tolerance, grown by
//! the double-angle steps, would cost more bits than the reduction saves.
//!
//! ## Sparse-slot bootstrapping
//!
//! When [`BootstrapParams::sparse_slots`] is set to `s < N/2`, the pipeline bootstraps a
//! ciphertext whose slot vector is `s`-periodic (the sparse packing of Cheon et al.; `fab-lr`'s
//! weights repeat this way). Its plaintext lies in the `s`-periodic subring, so after ModRaise
//! a **SubSum** pass of `log2(n/s)` rotate-and-adds, the trace onto that subring, multiplies
//! the message and the kept `q_0·I` coefficients alike by `n/s`, and the `s/n` folded into
//! CoeffToSlot takes it out again: EvalMod sees the range `K` of a dense bootstrap. The linear
//! transforms factor the *sub*-FFT over `s` slots (tiled block-wise across the full slot
//! vector), so CoeffToSlot/SlotToCoeff span only `log2(s)` butterfly levels and need far fewer
//! rotations. The refreshed ciphertext is `s`-periodic again. (A message masked to the first
//! `s` slots comes back multiplied by `s/n` and replicated into every block.)
//!
//! Because `2s ≤ n`, one slot vector has room for both coefficient halves, so a sparse
//! bootstrap evaluates EvalMod **once** (Cheon et al., EUROCRYPT 2018; Bossuat et al.,
//! EUROCRYPT 2021): the last CoeffToSlot stage is row-scaled by `(1 | −i)` on (even | odd)
//! `s`-blocks, so the conjugation split yields one real vector holding `Re w` on the even
//! blocks and `Im w` on the odd ones, and the first SlotToCoeff stage is composed with the
//! two-diagonal unpack that turns that vector back into the `s`-periodic `w`. Both are folded
//! into existing stages at construction, so the packing costs no level. A fully-packed
//! bootstrap has no spare room and evaluates EvalMod on each half.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use fab_math::{Complex64, SpecialFft};
use fab_trace::{noop_sink, phase, HeOp, OpTrace, TraceSink};

use crate::backend::{EvalBackend, ExecBackend, PlanBackend, PlanCiphertext};
use crate::linear_transform::{
    coeff_to_slot_offset_sets, coeff_to_slot_stages, slot_to_coeff_offset_sets,
    slot_to_coeff_stages,
};
use crate::{
    ChebyshevSeries, Ciphertext, CkksContext, CkksError, Evaluator, GaloisKeys, KeyProvider,
    KeyRef, LinearTransform, RelinearizationKey, Result,
};
use fab_rns::{Representation, RnsPolynomial};

/// Configuration of the bootstrapping pipeline.
#[derive(Debug, Clone)]
pub struct BootstrapParams {
    /// Cap on the degree of EvalMod's Chebyshev series: [`Bootstrapper::new`] picks the
    /// degree `2^k − 1 ≤ eval_mod_degree` and the double-angle count together (see the module
    /// doc), and refuses a range no such pair reaches.
    pub eval_mod_degree: usize,
    /// Bound `K` on the `q_0` multiples introduced by ModRaise (`|I| ≤ K`).
    pub k_range: f64,
    /// Number of grouped linear-transform stages per direction (`0` keeps one stage per
    /// butterfly level; the paper's `ﬀtIter` corresponds to this group count).
    pub fft_iter: usize,
    /// Bootstrap a sparsely-packed ciphertext whose slot vector is `sparse_slots`-periodic
    /// (a power of two): the message fills the first `sparse_slots` slots and repeats across
    /// the rest, as Cheon et al.'s sparse packing lays it out. The refresh returns it in the
    /// same layout. `None` bootstraps the fully-packed slot vector.
    pub sparse_slots: Option<usize>,
}

impl Default for BootstrapParams {
    fn default() -> Self {
        Self {
            eval_mod_degree: 159,
            k_range: 16.0,
            fft_iter: 3,
            sparse_slots: None,
        }
    }
}

impl BootstrapParams {
    /// Derives bootstrapping parameters from the scheme parameters (uses the scheme's
    /// `fft_iter` and scales the EvalMod range with the secret key sparsity).
    pub fn for_scheme(params: &crate::CkksParams) -> Self {
        let k_range = match params.secret_hamming_weight {
            Some(h) => ((h as f64).sqrt() * 2.5).max(12.0),
            None => 34.0,
        };
        Self {
            eval_mod_degree: Self::degree_for_range(k_range),
            k_range,
            fft_iter: params.fft_iter,
            sparse_slots: None,
        }
    }

    /// Derives parameters for bootstrapping a sparsely-packed ciphertext over `slots` slots:
    /// [`Self::for_scheme`]'s range and degree cap. The message is `slots`-periodic (see
    /// [`Self::sparse_slots`]), so SubSum leaves the ModRaise integers' range as it is.
    /// `slots` is checked where every window is, by [`Bootstrapper::new`]: anything but a
    /// power of two from 2 to the slot count gives [`CkksError::InvalidParameters`].
    pub fn sparse_for_scheme(params: &crate::CkksParams, slots: usize) -> Self {
        Self {
            sparse_slots: Some(slots),
            ..Self::for_scheme(params)
        }
    }

    /// Degree cap for a given range: grows roughly linearly with `2π(K+1)`.
    fn degree_for_range(k_range: f64) -> usize {
        let degree = ((2.0 * std::f64::consts::PI * (k_range + 1.0)) * 1.4).ceil() as usize + 16;
        degree.next_power_of_two().max(64) - 1
    }
}

/// EvalMod: a Chebyshev series of `cos(2π((K+1)t − 1/4)/2^r)` on `[-1, 1]`, then `r`
/// double-angle steps `c ← 2c² − 1`, which leave `sin(2π(K+1)t)` (see the module doc).
#[derive(Debug, Clone)]
struct EvalMod {
    cosine: ChebyshevSeries,
    doublings: u32,
}

impl EvalMod {
    /// Most double-angle steps searched. Each step can grow the error it is handed up to
    /// fourfold; allowing a fifth made the `helr_refresh` shape pick it and fall to 5.9 bits
    /// (seed 1), against 13.6 at the three it picks now.
    const MAX_DOUBLINGS: u32 = 4;

    /// Bound on the fitted series' max error times `4^r`, the most `r` double-angle steps
    /// can grow it by.
    const ERROR_BOUND: f64 = 1.0 / (1u64 << 32) as f64;

    /// Fits the degree-`degree` series of the cosine for range `K` reduced by `2^doublings`,
    /// and returns it with its max error, amplified by `4^doublings`. The error is read on a
    /// grid of 16 points per degree, dense enough to meet the extremes of the interpolant's
    /// error, the two endpoints among them.
    fn fit(k_range: f64, doublings: u32, degree: usize) -> (Self, f64) {
        let tau = 2.0 * std::f64::consts::PI;
        let reduction = f64::from(1u32 << doublings);
        let cosine = move |t: f64| (tau * ((k_range + 1.0) * t - 0.25) / reduction).cos();
        let series = ChebyshevSeries::fit(cosine, degree, -1.0, 1.0);
        let error = series.max_error(cosine, 16 * (degree + 1)) * reduction * reduction;
        (
            Self {
                cosine: series,
                doublings,
            },
            error,
        )
    }

    /// Picks `(r, d)` for range `k_range` under degree cap `cap`: per `r ≤ 4`, the smallest
    /// `d = 2^k − 1 ≤ cap` whose amplified error is within [`Self::ERROR_BOUND`] (a larger
    /// degree plans no fewer multiplies), then the candidate whose evaluation plans the
    /// fewest ciphertext multiplies on `ctx`, the smaller `r` on a tie.
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidParameters`] if no pair within the cap meets the bound, or if
    /// some do but none can be planned from `ctx`'s top level — each error names its cause.
    fn choose(ctx: &Arc<CkksContext>, k_range: f64, cap: usize) -> Result<Self> {
        let top = ctx.params().max_level;
        let mut best: Option<(u64, Self)> = None;
        let mut unplannable = None;
        for doublings in 0..=Self::MAX_DOUBLINGS {
            let passing = std::iter::successors(Some(1usize), |&d| Some(2 * d + 1))
                .take_while(|&d| d <= cap)
                .map(|d| Self::fit(k_range, doublings, d))
                .find(|(_, error)| *error <= Self::ERROR_BOUND);
            let Some((candidate, _)) = passing else {
                continue;
            };
            let plan = PlanBackend::new(ctx.clone(), "EvalMod candidate");
            let input = PlanCiphertext::new(top, ctx.params().default_scale());
            if let Err(e) = candidate.evaluate_with(&plan, &input) {
                unplannable = Some(e);
                continue;
            }
            let multiplies = plan.into_trace().counts().multiply;
            if best.as_ref().is_none_or(|(fewest, _)| multiplies < *fewest) {
                best = Some((multiplies, candidate));
            }
        }
        let reason = match unplannable {
            Some(e) => format!(
                "every EvalMod of degree at most {cap} with at most {} double-angle steps that \
                 approximates the range K = {k_range} within 2^-32 needs more levels than the \
                 top level {top} holds: {e}",
                Self::MAX_DOUBLINGS
            ),
            None => format!(
                "no EvalMod of degree at most {cap} with at most {} double-angle steps \
                 approximates the range K = {k_range} within 2^-32",
                Self::MAX_DOUBLINGS
            ),
        };
        best.map(|(_, eval_mod)| eval_mod)
            .ok_or(CkksError::InvalidParameters { reason })
    }

    /// The series, then the double-angle steps.
    fn evaluate_with<B: EvalBackend>(&self, backend: &B, ct: &B::Ct) -> Result<B::Ct> {
        let mut c = self.cosine.evaluate_with(backend, ct)?;
        for _ in 0..self.doublings {
            let square = backend.multiply_rescale(&c, &c)?;
            c = backend.add_scalar(&backend.add(&square, &square)?, Complex64::new(-1.0, 0.0))?;
        }
        Ok(c)
    }
}

/// The bootstrapping engine: precomputed linear-transform stages and EvalMod.
pub struct Bootstrapper {
    ctx: Arc<CkksContext>,
    evaluator: Evaluator,
    params: BootstrapParams,
    cts_stages: Vec<LinearTransform>,
    stc_stages: Vec<LinearTransform>,
    eval_mod: EvalMod,
}

impl std::fmt::Debug for Bootstrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bootstrapper")
            .field("fft_iter", &self.params.fft_iter)
            .field("eval_mod_degree", &self.params.eval_mod_degree)
            .field("k_range", &self.params.k_range)
            .field("eval_mod_doublings", &self.eval_mod.doublings)
            .field("eval_mod_series_degree", &self.eval_mod.cosine.degree())
            .field("cts_stages", &self.cts_stages.len())
            .field("stc_stages", &self.stc_stages.len())
            .finish()
    }
}

impl Bootstrapper {
    /// Builds the bootstrapper: factors the encoding FFT into stages and picks and fits
    /// EvalMod's series.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParameters`] if the scheme does not carry enough levels for
    /// the configured pipeline, or if no EvalMod within the degree cap reaches the range.
    pub fn new(ctx: Arc<CkksContext>, params: BootstrapParams) -> Result<Self> {
        Self::with_sink(ctx, params, noop_sink())
    }

    /// Builds an *instrumented* bootstrapper: every homomorphic operation of every phase is
    /// reported to `sink` during [`Self::bootstrap`], phase-marked with the labels of
    /// [`fab_trace::phase`]. It is [`Self::plan_only`]'s bootstrapper, validated before any
    /// diagonal is computed, with the diagonal values of its stages.
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`].
    pub fn with_sink(
        ctx: Arc<CkksContext>,
        params: BootstrapParams,
        sink: Arc<dyn TraceSink>,
    ) -> Result<Self> {
        let mut bootstrapper = Self::plan_only(ctx.clone(), params)?;
        let (fft_iter, k_range) = (bootstrapper.params.fft_iter, bootstrapper.params.k_range);
        let slots = ctx.slot_count();
        let window = bootstrapper.params.sparse_slots.filter(|&s| s < slots);
        let (mut cts_stages, mut stc_stages) = match window {
            Some(s) => packed_sub_fft_stages(s, slots, fft_iter)?,
            None => {
                let fft = ctx.fft();
                (
                    coeff_to_slot_stages(fft, fft_iter),
                    slot_to_coeff_stages(fft, fft_iter),
                )
            }
        };
        // Fold the 1/2 of the real/imaginary extraction into the last CoeffToSlot stage so the
        // conjugation-based split needs no extra scalar multiplication.
        if let Some(last) = cts_stages.last_mut() {
            last.scale_by(Complex64::new(0.5, 0.0));
        }
        // Scale management (the same trick production bootstrappers use): fold the
        // normalisation Δ/(q_0·(K+1)) into the CoeffToSlot matrices and the inverse factor
        // q_0/Δ into the SlotToCoeff matrices; a sparse bootstrap also folds in the s/n that
        // undoes SubSum, which sums n/s copies of an s-periodic polynomial. The working scale
        // then stays pinned near the rescaling primes throughout EvalMod instead of growing
        // with every multiplication, and the factors are applied with the full precision of
        // the plaintext encoding.
        let q0 = ctx.q_basis().modulus(0).value() as f64;
        let delta = ctx.params().default_scale();
        let k1 = k_range + 1.0;
        let subsum_gain = (slots / window.unwrap_or(slots)) as f64;
        let cts_factor = (delta / (q0 * k1 * subsum_gain)).powf(1.0 / cts_stages.len() as f64);
        for stage in cts_stages.iter_mut() {
            stage.scale_by(Complex64::new(cts_factor, 0.0));
        }
        // EvalMod returns sin(2π(K+1)t), so the 1/(2π) that makes it the message rides along.
        let stc_factor =
            (q0 / (2.0 * std::f64::consts::PI * delta)).powf(1.0 / stc_stages.len() as f64);
        for stage in stc_stages.iter_mut() {
            stage.scale_by(Complex64::new(stc_factor, 0.0));
        }
        bootstrapper.cts_stages = cts_stages;
        bootstrapper.stc_stages = stc_stages;
        bootstrapper.evaluator = Evaluator::with_sink(ctx, sink);
        Ok(bootstrapper)
    }

    /// Builds a *plan-only* bootstrapper: [`Self::new`]'s pipeline with every CoeffToSlot and
    /// SlotToCoeff stage known by its diagonal offsets alone ([`LinearTransform::from_offsets`]),
    /// so no diagonal is computed or encoded. Its [`Self::predicted_trace`],
    /// [`Self::predicted_key_refs`] and [`Self::required_rotations`] are those of
    /// [`Self::new`] on the same arguments; [`Self::bootstrap_with`] refuses it with
    /// [`CkksError::InvalidInput`]. The `fab-core` accelerator model prices its plan.
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`].
    pub fn plan_only(ctx: Arc<CkksContext>, params: BootstrapParams) -> Result<Self> {
        let slots = ctx.slot_count();
        // Validate the window before choosing a pipeline, so an out-of-range request errors
        // instead of silently building the fully-packed bootstrap.
        let out_of_range = |&s: &usize| !s.is_power_of_two() || s < 2 || s > slots;
        if let Some(s) = params.sparse_slots.filter(out_of_range) {
            return Err(CkksError::InvalidParameters {
                reason: format!("sparse slot count {s} must be a power of two in [2, {slots}]"),
            });
        }
        // A sparse bootstrap's stages are the sub-FFT's over s slots, tiled (which keeps the
        // offsets), with the row scale on offset 0 and the unpack's {0, s} composed in.
        let window = params.sparse_slots.filter(|&s| s < slots);
        let span = window.unwrap_or(slots);
        let mut stc_sets = slot_to_coeff_offset_sets(span, params.fft_iter);
        if let (Some(s), Some(first)) = (window, stc_sets.first_mut()) {
            let unpacked: BTreeSet<usize> = first.iter().flat_map(|&d| [d, d + s]).collect();
            *first = unpacked.into_iter().collect();
        }
        let stages = |sets: Vec<Vec<usize>>| -> Vec<LinearTransform> {
            let stage = |offsets: &Vec<usize>| LinearTransform::from_offsets(slots, offsets);
            sets.iter().map(stage).collect()
        };
        let bootstrapper = Self {
            evaluator: Evaluator::new(ctx.clone()),
            eval_mod: EvalMod::choose(&ctx, params.k_range, params.eval_mod_degree)?,
            cts_stages: stages(coeff_to_slot_offset_sets(span, params.fft_iter)),
            stc_stages: stages(stc_sets),
            ctx,
            params,
        };
        // Planning the pipeline on shadow ciphertexts costs milliseconds and validates the
        // exact level budget, so a bootstrapper that cannot run is rejected here instead of
        // failing mid-bootstrap.
        if let Err(e) = bootstrapper.predicted_trace() {
            return Err(CkksError::InvalidParameters {
                reason: format!("parameter set cannot carry the bootstrap pipeline: {e}"),
            });
        }
        Ok(bootstrapper)
    }

    /// The bootstrapping configuration.
    pub fn params(&self) -> &BootstrapParams {
        &self.params
    }

    /// The rotation steps required for Galois key generation: the union of every stage's
    /// BSGS-decomposed baby/giant offsets plus the SubSum ladder (sparse bootstraps). The
    /// plans keep this set near `2·√d` per stage instead of one key per diagonal.
    pub fn required_rotations(&self) -> Vec<usize> {
        let mut steps: Vec<usize> = self
            .cts_stages
            .iter()
            .chain(self.stc_stages.iter())
            .flat_map(|s| s.required_rotations())
            .chain(self.subsum_steps())
            .collect();
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// Number of linear-transform stages per direction.
    pub fn stage_counts(&self) -> (usize, usize) {
        (self.cts_stages.len(), self.stc_stages.len())
    }

    /// The BSGS plans of the CoeffToSlot stages, in application order.
    pub fn coeff_to_slot_plans(&self) -> Vec<&crate::BsgsPlan> {
        self.cts_stages
            .iter()
            .map(LinearTransform::bsgs_plan)
            .collect()
    }

    /// The BSGS plans of the SlotToCoeff stages, in application order.
    pub fn slot_to_coeff_plans(&self) -> Vec<&crate::BsgsPlan> {
        self.stc_stages
            .iter()
            .map(LinearTransform::bsgs_plan)
            .collect()
    }

    /// The rotation steps of the SubSum doubling ladder, `s, 2s, …` below the slot count
    /// (empty for fully-packed bootstraps).
    pub fn subsum_steps(&self) -> Vec<usize> {
        let slots = self.ctx.slot_count();
        let first = self.params.sparse_slots.filter(|&s| s < slots);
        std::iter::successors(first, |&step| (step * 2 < slots).then(|| step * 2)).collect()
    }

    /// ModRaise: reinterprets a (nearly) exhausted ciphertext modulo `q_0` as a ciphertext over
    /// the full modulus `Q`, which then encrypts `m + q_0·I` for a small integer polynomial `I`.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidInput`] if the ciphertext is not at level 0.
    pub fn mod_raise(&self, ct: &Ciphertext) -> Result<Ciphertext> {
        if ct.level() != 0 {
            return Err(CkksError::InvalidInput {
                reason: format!(
                    "mod_raise expects a level-0 ciphertext, got level {}",
                    ct.level()
                ),
            });
        }
        let max_level = self.ctx.params().max_level;
        // ModRaise re-populates and transforms every limb of both ring elements; report it to
        // the sink as the NTT batch the accelerator model charges for this phase.
        self.evaluator.record(HeOp::Ntt {
            count: 2 * self.ctx.params().total_q_limbs(),
        });
        let target_basis = self.ctx.basis_at_level(max_level)?;
        let q0 = self.ctx.q_basis().modulus(0);
        let raise = |poly: &RnsPolynomial| -> RnsPolynomial {
            let signed: Vec<i64> = poly.limb(0).iter().map(|&c| q0.to_signed(c)).collect();
            RnsPolynomial::from_signed_coeffs(&signed, &target_basis, Representation::Coefficient)
        };
        Ok(Ciphertext::from_parts(
            raise(ct.c0()),
            raise(ct.c1()),
            ct.scale(),
            max_level,
        ))
    }

    /// SubSum (sparse packing): `Σ_j rotate(ct, j·s)` by doubling — projects the raised
    /// polynomial onto the `s`-periodic subring so the tiled sub-FFT stages apply. A
    /// fully-packed bootstrap has no ladder and passes the ciphertext through unrecorded.
    ///
    /// # Errors
    ///
    /// Propagates missing-key errors.
    fn sub_sum_with<B: EvalBackend>(&self, backend: &B, raised: &B::Ct) -> Result<B::Ct> {
        let steps = self.subsum_steps();
        if !steps.is_empty() {
            backend.begin_phase(phase::SUB_SUM);
        }
        let mut acc = raised.clone();
        for step in steps {
            let rotated = backend.rotate(&acc, step)?;
            acc = backend.add(&acc, &rotated)?;
        }
        Ok(acc)
    }

    /// CoeffToSlot: homomorphically applies the factored inverse encoding FFT to get the slot
    /// vector `w` and returns the real vectors EvalMod reduces. A sparse bootstrap returns
    /// one, `Re(c ⊙ w)` with `c = (1 | −i)` on (even | odd) `s`-blocks — `Re w` on the even
    /// blocks, `Im w` on the odd ones; a fully-packed one returns two, its real part (the
    /// lower coefficients) and its imaginary part (the upper). Either way one conjugation
    /// does the split.
    ///
    /// # Errors
    ///
    /// Propagates missing-key and level errors.
    fn coeff_to_slot_with<B: EvalBackend>(&self, backend: &B, ct: &B::Ct) -> Result<Vec<B::Ct>> {
        let mut current = ct.clone();
        for stage in &self.cts_stages {
            current = stage.apply_with(backend, &current)?;
        }
        // current holds w/2 (the 1/2 was folded into the last stage), row-scaled by c when
        // sparse.
        let conjugated = backend.conjugate(&current)?;
        let real = backend.add(&current, &conjugated)?;
        if !self.subsum_steps().is_empty() {
            // Sparse (the bootstrap has a SubSum ladder): Re(c ⊙ w) is the whole packed vector.
            return Ok(vec![real]);
        }
        let imag_times_i = backend.sub(&current, &conjugated)?;
        // Multiply by -i = X^{3N/2} to turn i·Im(w) into Im(w).
        let imag = backend.multiply_by_monomial(&imag_times_i, 3 * self.ctx.degree() / 2)?;
        Ok(vec![real, imag])
    }

    /// SlotToCoeff: recombines the reduced halves into `w` and homomorphically applies the
    /// factored forward encoding FFT, returning the refreshed ciphertext in coefficient form.
    /// A packed sparse vector needs no recombination: the first stage's composed unpack
    /// does it.
    ///
    /// # Errors
    ///
    /// Propagates missing-key and level errors.
    fn slot_to_coeff_with<B: EvalBackend>(&self, backend: &B, reduced: &[B::Ct]) -> Result<B::Ct> {
        let mut current = match reduced {
            [packed] => packed.clone(),
            [real, imag] => {
                let imag_i = backend.multiply_by_monomial(imag, self.ctx.degree() / 2)?;
                let (a, b) = backend.align_for_addition(real, &imag_i)?;
                backend.add(&a, &b)?
            }
            _ => unreachable!("CoeffToSlot yields one packed or two split halves"),
        };
        for stage in &self.stc_stages {
            current = stage.apply_with(backend, &current)?;
        }
        Ok(current)
    }

    /// Full bootstrapping: ModRaise → (SubSum) → CoeffToSlot → EvalMod (once on the packed
    /// halves of a sparse bootstrap, once per half of a fully-packed one) → SlotToCoeff, then
    /// a final scale alignment.
    ///
    /// The returned ciphertext encrypts (approximately) the same message at the same scale, but
    /// at a much higher level, so computation can continue.
    ///
    /// # Errors
    ///
    /// Propagates errors from every stage.
    pub fn bootstrap_with(&self, ct: &Ciphertext, keys: &dyn KeyProvider) -> Result<Ciphertext> {
        let message_scale = ct.scale();
        let default_scale = self.ctx.params().default_scale();
        if (message_scale / default_scale - 1.0).abs() > 0.01 {
            return Err(CkksError::InvalidInput {
                reason: format!(
                    "bootstrapping expects the input at the default scale {default_scale:e}, got {message_scale:e}"
                ),
            });
        }
        let backend = ExecBackend::new(&self.evaluator, keys);
        backend.begin_phase(phase::MOD_RAISE);
        let raised = self.mod_raise(ct)?;
        self.pipeline_with(&backend, &raised, message_scale)
    }

    /// [`Self::bootstrap_with`] on a borrowed resident key set.
    ///
    /// # Errors
    ///
    /// Same as [`Self::bootstrap_with`].
    pub fn bootstrap(
        &self,
        ct: &Ciphertext,
        rlk: &RelinearizationKey,
        keys: &GaloisKeys,
    ) -> Result<Ciphertext> {
        self.bootstrap_with(ct, &(rlk, keys))
    }

    /// The phase structure after ModRaise, shared between real execution and planning.
    fn pipeline_with<B: EvalBackend>(
        &self,
        backend: &B,
        raised: &B::Ct,
        message_scale: f64,
    ) -> Result<B::Ct> {
        let raised = self.sub_sum_with(backend, raised)?;
        backend.begin_phase(phase::COEFF_TO_SLOT);
        let halves = self.coeff_to_slot_with(backend, &raised)?;
        // EvalMod: sin(2π(K+1)·t) removes the q_0·I multiples from the slot values. The
        // CoeffToSlot matrices already folded in Δ/(q_0·(K+1)), so the slots arrive in [-1, 1];
        // the inverse factor and the 1/(2π) live in the SlotToCoeff matrices.
        backend.begin_phase(phase::EVAL_MOD);
        let reduced = halves
            .iter()
            .map(|half| self.eval_mod.evaluate_with(backend, half))
            .collect::<Result<Vec<_>>>()?;
        backend.begin_phase(phase::SLOT_TO_COEFF);
        let recombined = self.slot_to_coeff_with(backend, &reduced)?;
        backend.match_scale(&recombined, message_scale)
    }

    /// The *analytic* operation trace of one bootstrap at this bootstrapper's configuration:
    /// the same pipeline control flow executed on shadow `(level, scale)` ciphertexts by a
    /// [`PlanBackend`], without touching any polynomial. A recorded real execution (run the
    /// bootstrapper built by [`Self::with_sink`] with a `fab_trace::RecordingSink`) must agree
    /// with this trace op-for-op — that equivalence is enforced by the crate's tests and is
    /// what licenses feeding analytic traces to the `fab-core` cost model.
    ///
    /// # Errors
    ///
    /// Propagates (shadow) level-exhaustion errors if the parameter set cannot carry the
    /// pipeline.
    pub fn predicted_trace(&self) -> Result<OpTrace> {
        Ok(self.plan()?.into_trace())
    }

    /// The *analytic* key stream of one bootstrap: the [`KeyRef`] of every key switch, with
    /// repeats, in the order [`Self::bootstrap_with`] asks its provider for them — known
    /// before the bootstrap runs, which is what a prefetching provider schedules against.
    /// Pinned to what a recording provider is really asked for by the crate's tests.
    ///
    /// # Errors
    ///
    /// Same as [`Self::predicted_trace`].
    pub fn predicted_key_refs(&self) -> Result<Vec<KeyRef>> {
        Ok(self.plan()?.into_key_refs())
    }

    /// One bootstrap, planned: the pipeline run on a [`PlanBackend`].
    fn plan(&self) -> Result<PlanBackend> {
        let plan = PlanBackend::new(
            self.ctx.clone(),
            format!("bootstrap predicted(fftIter={})", self.params.fft_iter),
        );
        plan.begin_phase(phase::MOD_RAISE);
        plan.push(HeOp::Ntt {
            count: 2 * self.ctx.params().total_q_limbs(),
        });
        let scale = self.ctx.params().default_scale();
        let raised = PlanCiphertext::new(self.ctx.params().max_level, scale);
        self.pipeline_with(&plan, &raised, scale)?;
        Ok(plan)
    }
}

/// The CoeffToSlot and SlotToCoeff stages of a sparse bootstrap over `s < slots` used slots,
/// before scale management: the sub-FFT over `s` slots factored into `fft_iter` groups and
/// tiled block-wise over the full slot vector (SubSum makes the input `s`-periodic first),
/// with the packing of [`packing_transforms`] folded in so EvalMod runs once — the row scale
/// on the last CoeffToSlot stage (offset 0, so its offsets and plan are unchanged), the
/// unpack on the first SlotToCoeff stage.
fn packed_sub_fft_stages(
    s: usize,
    slots: usize,
    fft_iter: usize,
) -> Result<(Vec<LinearTransform>, Vec<LinearTransform>)> {
    let sub_fft = SpecialFft::new(2 * s).map_err(|e| CkksError::InvalidParameters {
        reason: format!("sparse sub-FFT: {e}"),
    })?;
    let tiled = |stages: Vec<LinearTransform>| -> Vec<LinearTransform> {
        stages.iter().map(|stage| stage.tiled(slots)).collect()
    };
    let mut cts = tiled(coeff_to_slot_stages(&sub_fft, fft_iter));
    let mut stc = tiled(slot_to_coeff_stages(&sub_fft, fft_iter));
    let (row_scale, unpack) = packing_transforms(s, slots);
    if let (Some(last), Some(first)) = (cts.last_mut(), stc.first_mut()) {
        *last = row_scale.compose(last);
        *first = first.compose(&unpack);
    }
    Ok((cts, stc))
}

/// The two transforms that pack an `s`-periodic complex slot vector `w` into one real vector
/// over `slots ≥ 2s` slots and back. The row scale `c = (1 | −i)` on (even | odd) `s`-blocks
/// makes `p = Re(c ⊙ w)` hold `Re w` on the even blocks and `Im w` on the odd ones. The unpack
/// `U` has diagonals `d₀ = (1 | i)` and `d_s = (i | 1)`, so `U(p) = p + i·p(·+s)` on even blocks
/// and `i·p + p(·+s)` on odd ones, which is `w` everywhere: `p` is `2s`-periodic, so offset `s`
/// also stands for offset `slots − s`.
fn packing_transforms(s: usize, slots: usize) -> (LinearTransform, LinearTransform) {
    let (one, i) = (Complex64::one(), Complex64::i());
    let by_block = |even: Complex64, odd: Complex64| -> Vec<Complex64> {
        (0..slots)
            .map(|j| if (j / s).is_multiple_of(2) { even } else { odd })
            .collect()
    };
    (
        LinearTransform::from_diagonals(slots, BTreeMap::from([(0, by_block(one, -i))])),
        LinearTransform::from_diagonals(
            slots,
            BTreeMap::from([(0, by_block(one, i)), (s, by_block(i, one))]),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording_keys::RecordingKeys;
    use crate::{CkksParams, Decryptor, Encoder, Encryptor, KeyGenerator, SecretKey};
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    struct Fixture {
        ctx: Arc<CkksContext>,
        encoder: Encoder,
        encryptor: Encryptor,
        decryptor: Decryptor,
        evaluator: Evaluator,
        bootstrapper: Bootstrapper,
        rlk: RelinearizationKey,
        keys: GaloisKeys,
        rng: ChaCha20Rng,
    }

    /// The fully-packed bootstrap the dense tests run: degree 159, `K` 16, three stages.
    fn dense_params() -> BootstrapParams {
        BootstrapParams {
            eval_mod_degree: 159,
            k_range: 16.0,
            fft_iter: 3,
            sparse_slots: None,
        }
    }

    /// The sparse bootstrap over `s` used slots at `bootstrap_testing()`, grouped into three
    /// stages per direction as `fab-lr` groups it.
    fn sparse_params(s: usize) -> BootstrapParams {
        BootstrapParams {
            fft_iter: 3,
            ..BootstrapParams::sparse_for_scheme(&CkksParams::bootstrap_testing(), s)
        }
    }

    fn fixture() -> Fixture {
        fixture_with(dense_params())
    }

    fn fixture_with(params: BootstrapParams) -> Fixture {
        let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing()).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(2024);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
        let pk = keygen.public_key(&mut rng);
        let rlk = keygen.relinearization_key(&mut rng);
        let bootstrapper = Bootstrapper::new(ctx.clone(), params).unwrap();
        let keys = keygen
            .galois_keys(&bootstrapper.required_rotations(), true, &mut rng)
            .unwrap();
        Fixture {
            encoder: Encoder::new(ctx.clone()),
            encryptor: Encryptor::new(ctx.clone(), pk),
            decryptor: Decryptor::new(ctx.clone(), sk),
            evaluator: Evaluator::new(ctx.clone()),
            ctx,
            bootstrapper,
            rlk,
            keys,
            rng,
        }
    }

    #[test]
    fn mod_raise_requires_level_zero_and_raises_to_max() {
        let mut f = fixture();
        let scale = f.ctx.params().default_scale();
        let pt = f.encoder.encode_real(&[0.5, -0.25], scale, 0).unwrap();
        let ct = f.encryptor.encrypt(&pt, &mut f.rng).unwrap();
        let raised = f.bootstrapper.mod_raise(&ct).unwrap();
        assert_eq!(raised.level(), f.ctx.params().max_level);
        assert_eq!(raised.scale(), ct.scale());
        // A ciphertext at a higher level is rejected.
        let pt_high = f.encoder.encode_real(&[0.5], scale, 2).unwrap();
        let ct_high = f.encryptor.encrypt(&pt_high, &mut f.rng).unwrap();
        assert!(f.bootstrapper.mod_raise(&ct_high).is_err());
    }

    /// The bootstrap with EvalMod replaced by an exact multiplication with 2π(K+1), decrypted:
    /// encrypt `values` at level 0, ModRaise, SubSum (sparse only), CoeffToSlot, `×2π(K+1)` on
    /// every half it returns (`halves` of them), SlotToCoeff. The CoeffToSlot matrices fold in
    /// 1/(q0·(K+1)) and the SlotToCoeff matrices fold in q0/(2π), so with the extra 2π(K+1)
    /// the round trip reproduces the raised polynomial m + q0·I exactly, and the q0·I
    /// multiples vanish modulo q0 at decode time. This isolates the linear transforms from
    /// EvalMod.
    fn round_trip_with_stand_in(f: &mut Fixture, values: &[f64], halves: usize) -> Vec<f64> {
        let scale = f.ctx.params().default_scale();
        let pt = f.encoder.encode_real(values, scale, 0).unwrap();
        let ct = f.encryptor.encrypt(&pt, &mut f.rng).unwrap();
        let b = &f.bootstrapper;
        let raised = b.mod_raise(&ct).unwrap();
        let backend = ExecBackend::new(&f.evaluator, &f.keys);
        let summed = b.sub_sum_with(&backend, &raised).unwrap();
        let split = b.coeff_to_slot_with(&backend, &summed).unwrap();
        assert_eq!(split.len(), halves);
        let gain = Complex64::new(2.0 * std::f64::consts::PI * (b.params().k_range + 1.0), 0.0);
        let scaled: Vec<Ciphertext> = split
            .iter()
            .map(|half| backend.multiply_scalar(half, gain).unwrap())
            .collect();
        let back = b.slot_to_coeff_with(&backend, &scaled).unwrap();
        f.encoder.decode_real(&f.decryptor.decrypt(&back).unwrap())
    }

    #[test]
    fn coeff_to_slot_then_slot_to_coeff_is_identity_without_eval_mod() {
        let mut f = fixture();
        let n = f.ctx.slot_count();
        let values: Vec<f64> = (0..n).map(|i| ((i % 37) as f64 - 18.0) / 40.0).collect();
        let decoded = round_trip_with_stand_in(&mut f, &values, 2);
        for i in 0..64 {
            assert!(
                (decoded[i] - values[i]).abs() < 2e-2,
                "slot {i}: {} vs {}",
                decoded[i],
                values[i]
            );
        }
    }

    #[test]
    fn sparse_coeff_to_slot_then_slot_to_coeff_is_identity_without_eval_mod() {
        // The sparse twin: one packed half through the `×2π(K+1)` stand-in, so a wrong packing
        // or unpack shows here without EvalMod in the way. It also pins the input contract:
        // an s-periodic message comes back as itself, while one masked to the first s slots
        // comes back multiplied by s/n and replicated into every s-block.
        let s = 64;
        let mut f = fixture_with(sparse_params(s));
        let n = f.ctx.slot_count();
        let block: Vec<f64> = (0..s).map(|i| ((i % 37) as f64 - 18.0) / 40.0).collect();
        let periodic: Vec<f64> = (0..n).map(|i| block[i % s]).collect();
        let shrink = s as f64 / n as f64;
        for (input, gain) in [(&periodic, 1.0), (&block, shrink)] {
            let decoded = round_trip_with_stand_in(&mut f, input, 1);
            for (i, got) in decoded.iter().enumerate() {
                let want = gain * block[i % s];
                assert!(
                    (got - want).abs() < 2e-2 * gain,
                    "{} input, slot {i}: {got} vs {want}",
                    input.len()
                );
            }
        }
    }

    #[test]
    fn packing_matches_the_split_halves_from_the_definition() {
        // Plaintext oracle of the packing for every power-of-two window s in [2, n/2]: the
        // row-scaled last CoeffToSlot stage, then Re(·), lays out exactly Re w | Im w of the
        // original stage's output w on the (even | odd) s-blocks; the composed first SlotToCoeff
        // stage on that real vector equals the original first stage on w.
        let params = CkksParams::bootstrap_testing();
        let n = params.slot_count();
        let mut s = 2;
        while s <= n / 2 {
            let sub_fft = SpecialFft::new(2 * s).unwrap();
            let last = coeff_to_slot_stages(&sub_fft, 3).pop().unwrap().tiled(n);
            let first = slot_to_coeff_stages(&sub_fft, 3).remove(0).tiled(n);
            let (cts, stc) = packed_sub_fft_stages(s, n, 3).unwrap();
            assert_eq!(
                cts.last().unwrap().diagonal_offsets(),
                last.diagonal_offsets()
            );
            let block: Vec<Complex64> = (0..s)
                .map(|k| {
                    let k = k as f64 + s as f64;
                    Complex64::new((k * 0.73).sin(), (k * 1.37).cos())
                })
                .collect();
            let input: Vec<Complex64> = (0..n).map(|j| block[j % s]).collect();
            let w = last.apply_plain(&input);
            let packed: Vec<Complex64> = cts
                .last()
                .unwrap()
                .apply_plain(&input)
                .iter()
                .map(|v| Complex64::new(v.re, 0.0))
                .collect();
            for j in 0..n {
                let want = if (j / s).is_multiple_of(2) {
                    w[j].re
                } else {
                    w[j].im
                };
                assert_eq!(packed[j].re, want, "s = {s}, slot {j}");
            }
            let unpacked = stc[0].apply_plain(&packed);
            let want = first.apply_plain(&w);
            for j in 0..n {
                assert!(
                    (unpacked[j] - want[j]).norm() < 1e-9,
                    "s = {s}, slot {j}: {} vs {}",
                    unpacked[j],
                    want[j]
                );
            }
            s *= 2;
        }
    }

    /// The Galois rotation steps of the sparse bootstrap at s = 64 (`sparse_params(64)`).
    /// The unpack composed into the first SlotToCoeff stage adds one step, 124, to the
    /// unpacked pipeline's set.
    const SPARSE_64_ROTATIONS: &[usize] = &[1, 2, 3, 4, 8, 12, 16, 32, 48, 60, 64, 124, 128, 256];

    #[test]
    fn eval_mod_runs_the_sine_once_per_sparse_bootstrap_and_twice_per_dense() {
        // Per evaluation, at either shape: the degree-31 series takes 11 multiplies and its
        // four double-angle steps 4.
        let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing()).unwrap();
        let sparse = Bootstrapper::new(ctx.clone(), sparse_params(64)).unwrap();
        let dense = Bootstrapper::new(ctx.clone(), dense_params()).unwrap();
        for (b, evaluations, multiply, rescale) in [(&sparse, 1, 15, 25), (&dense, 2, 30, 50)] {
            let one = PlanBackend::new(ctx.clone(), "one EvalMod");
            let input = PlanCiphertext::new(ctx.params().max_level, ctx.params().default_scale());
            b.eval_mod.evaluate_with(&one, &input).unwrap();
            let one = one.into_trace().counts();
            let (_, eval_mod) = b
                .predicted_trace()
                .unwrap()
                .phase_counts()
                .into_iter()
                .find(|(label, _)| label == phase::EVAL_MOD)
                .unwrap();
            assert_eq!(eval_mod.multiply, evaluations * one.multiply);
            assert_eq!(eval_mod.rescale, evaluations * one.rescale);
            assert_eq!((eval_mod.multiply, eval_mod.rescale), (multiply, rescale));
        }
        // The key set at s = 64, pinned: a change that adds a Galois key (each one costs
        // memory on every refreshing trainer) has to say so here.
        assert_eq!(sparse.required_rotations(), SPARSE_64_ROTATIONS);
    }

    #[test]
    fn eval_mod_picks_the_pair_with_the_fewest_multiplies_within_the_error_bound() {
        // (K, cap) of `boot_dense`, of `helr_refresh` (64 of 512 slots) and of the 256-slot
        // refresh Table 8 prices at `fab_paper()`, with the double-angle count, the series
        // degree and the multiplies of one evaluation each must pick. A sparse bootstrap keeps
        // the dense range of its scheme.
        let testing = CkksContext::new_arc(CkksParams::bootstrap_testing()).unwrap();
        let paper = CkksContext::new_arc(CkksParams::fab_paper()).unwrap();
        let helr = sparse_params(64);
        let table8 = BootstrapParams::sparse_for_scheme(&CkksParams::fab_paper(), 256);
        assert_eq!((helr.k_range.round(), helr.eval_mod_degree), (14.0, 255));
        assert_eq!((table8.k_range, table8.eval_mod_degree), (34.0, 511));
        for (ctx, params, picked) in [
            (&testing, dense_params(), (4, 31, 15)),
            (&testing, helr, (4, 31, 15)),
            (&paper, table8.clone(), (3, 63, 19)),
        ] {
            let eval_mod = EvalMod::choose(ctx, params.k_range, params.eval_mod_degree).unwrap();
            let plan = PlanBackend::new(ctx.clone(), "EvalMod");
            let input = PlanCiphertext::new(ctx.params().max_level, ctx.params().default_scale());
            eval_mod.evaluate_with(&plan, &input).unwrap();
            let multiplies = plan.into_trace().counts().multiply;
            assert_eq!(
                (eval_mod.doublings, eval_mod.cosine.degree(), multiplies),
                picked,
                "K = {}",
                params.k_range
            );
        }
        // The 256-slot range is out of reach of a degree-31 series: refused, not run.
        let out_of_reach = BootstrapParams {
            eval_mod_degree: 31,
            ..table8.clone()
        };
        assert!(matches!(
            Bootstrapper::new(testing, out_of_reach),
            Err(CkksError::InvalidParameters { .. })
        ));
        // The planned dense bootstrap and the 256-slot refresh at `fab_paper()` both return at
        // level 4: 23 → 19 (CoeffToSlot) → 9 (EvalMod) → 5 (SlotToCoeff) → 4 (scale).
        for params in [BootstrapParams::for_scheme(paper.params()), table8] {
            let b = Bootstrapper::new(paper.clone(), params).unwrap();
            let plan = PlanBackend::new(paper.clone(), "exit level");
            let scale = paper.params().default_scale();
            let raised = PlanCiphertext::new(paper.params().max_level, scale);
            let refreshed = b.pipeline_with(&plan, &raised, scale).unwrap();
            assert_eq!(plan.level(&refreshed), 4, "{b:?}");
        }
    }

    /// RMS precision of `got` against `want`, in bits: `−log2` of the RMS error.
    fn rms_bits(got: &[f64], want: &[f64]) -> f64 {
        let squared: f64 = got.iter().zip(want).map(|(g, w)| (g - w).powi(2)).sum();
        -(squared / want.len() as f64).sqrt().log2()
    }

    #[test]
    fn dense_and_sparse_bootstraps_keep_twelve_bits_rms() {
        // With exact scales inside the series, the double-angle steps have no relabelled
        // scale error to amplify.
        let n = CkksParams::bootstrap_testing().slot_count();
        for (params, s) in [(dense_params(), n), (sparse_params(64), 64)] {
            let mut f = fixture_with(params);
            let scale = f.ctx.params().default_scale();
            let values: Vec<f64> = (0..n)
                .map(|i| 0.4 * (((i % s) as f64) * 0.05).sin())
                .collect();
            let pt = f.encoder.encode_real(&values, scale, 0).unwrap();
            let ct = f.encryptor.encrypt(&pt, &mut f.rng).unwrap();
            let refreshed = f.bootstrapper.bootstrap(&ct, &f.rlk, &f.keys).unwrap();
            let decoded = f
                .encoder
                .decode_real(&f.decryptor.decrypt(&refreshed).unwrap());
            let bits = rms_bits(&decoded, &values);
            assert!(bits >= 12.0, "{s} slots: {bits:.2} bits RMS");
        }
    }

    #[test]
    #[ignore = "80 CoeffToSlot runs, minutes in debug and seconds in release; run with --release --ignored"]
    fn eval_mod_input_stays_within_the_series_domain() {
        // EvalMod's series covers [-1, 1], and CoeffToSlot hands it (m + q0·I)/(q0·(K+1)) per
        // slot, with I the integer ModRaise adds. Over 40 encryptions per shape, every slot of
        // every vector CoeffToSlot returns must stay inside. A sparse bootstrap that does not
        // take SubSum's n/s back out hands EvalMod n/s times the kept coefficients of I, which
        // leave the domain.
        const ENCRYPTIONS: usize = 40;
        let n = CkksParams::bootstrap_testing().slot_count();
        for (params, s) in [(dense_params(), n), (sparse_params(64), 64)] {
            let mut f = fixture_with(params);
            let scale = f.ctx.params().default_scale();
            let values: Vec<f64> = (0..n)
                .map(|i| 0.4 * (((i % s) as f64) * 0.05).sin())
                .collect();
            let pt = f.encoder.encode_real(&values, scale, 0).unwrap();
            let backend = ExecBackend::new(&f.evaluator, &f.keys);
            let mut widest = 0.0f64;
            for _ in 0..ENCRYPTIONS {
                let ct = f.encryptor.encrypt(&pt, &mut f.rng).unwrap();
                let raised = f.bootstrapper.mod_raise(&ct).unwrap();
                let summed = f.bootstrapper.sub_sum_with(&backend, &raised).unwrap();
                for half in f
                    .bootstrapper
                    .coeff_to_slot_with(&backend, &summed)
                    .unwrap()
                {
                    let t = f.encoder.decode_real(&f.decryptor.decrypt(&half).unwrap());
                    widest = t.iter().fold(widest, |widest, v| widest.max(v.abs()));
                }
            }
            println!("{s} slots: |t| reaches {widest:.3}");
            assert!(widest <= 1.0, "{s} slots: |t| reaches {widest:.3}");
        }
    }

    #[test]
    fn full_bootstrap_refreshes_levels_and_preserves_message() {
        let mut f = fixture();
        let scale = f.ctx.params().default_scale();
        let n = f.ctx.slot_count();
        let values: Vec<f64> = (0..n).map(|i| 0.4 * ((i as f64) * 0.05).sin()).collect();
        let pt = f.encoder.encode_real(&values, scale, 0).unwrap();
        let ct = f.encryptor.encrypt(&pt, &mut f.rng).unwrap();
        assert_eq!(ct.level(), 0);

        let refreshed = f.bootstrapper.bootstrap(&ct, &f.rlk, &f.keys).unwrap();
        assert!(
            refreshed.level() >= 2,
            "bootstrapping must leave usable levels, got {}",
            refreshed.level()
        );
        let decoded = f
            .encoder
            .decode_real(&f.decryptor.decrypt(&refreshed).unwrap());
        let max_err = decoded
            .iter()
            .zip(&values)
            .map(|(d, v)| (d - v).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 5e-2, "bootstrapping error too large: {max_err}");

        // The refreshed ciphertext supports further computation: square it and check.
        let squared = f
            .evaluator
            .multiply_rescale(&refreshed, &refreshed, &f.rlk)
            .unwrap();
        let decoded_sq = f
            .encoder
            .decode_real(&f.decryptor.decrypt(&squared).unwrap());
        for i in 0..32 {
            assert!(
                (decoded_sq[i] - values[i] * values[i]).abs() < 1e-1,
                "post-bootstrap multiply failed at slot {i}: {} vs {}",
                decoded_sq[i],
                values[i] * values[i]
            );
        }
    }

    #[test]
    fn bootstrapper_reports_stage_structure() {
        let f = fixture();
        let (cts, stc) = f.bootstrapper.stage_counts();
        assert_eq!(cts, 3);
        assert_eq!(stc, 3);
        // One plan per stage, in both directions.
        assert_eq!(f.bootstrapper.coeff_to_slot_plans().len(), cts);
        assert_eq!(f.bootstrapper.slot_to_coeff_plans().len(), stc);
        assert!(!f.bootstrapper.required_rotations().is_empty());
        // Every required rotation is below the slot count.
        assert!(f
            .bootstrapper
            .required_rotations()
            .iter()
            .all(|&r| r < f.ctx.slot_count()));
    }

    #[test]
    fn plan_only_bootstrapper_plans_what_the_valued_one_runs() {
        // Stages built from structural offsets plan the phases and ops, the key stream and the
        // key set of the valued stages, dense and at two sparse windows (s = n/2 among them).
        let mut f = fixture();
        for params in [dense_params(), sparse_params(64), sparse_params(256)] {
            let valued = Bootstrapper::new(f.ctx.clone(), params.clone()).unwrap();
            let planned = Bootstrapper::plan_only(f.ctx.clone(), params).unwrap();
            let want = valued.predicted_trace().unwrap();
            assert_eq!(
                planned.predicted_trace().unwrap().phase_slices(),
                want.phase_slices()
            );
            let want = valued.predicted_key_refs().unwrap();
            assert_eq!(planned.predicted_key_refs().unwrap(), want);
            assert_eq!(planned.required_rotations(), valued.required_rotations());
        }
        // It has no diagonal value to run: a bootstrap is refused with a typed error.
        let planned = Bootstrapper::plan_only(f.ctx.clone(), dense_params()).unwrap();
        let scale = f.ctx.params().default_scale();
        let pt = f.encoder.encode_real(&[0.25], scale, 0).unwrap();
        let ct = f.encryptor.encrypt(&pt, &mut f.rng).unwrap();
        let refused = planned.bootstrap(&ct, &f.rlk, &f.keys);
        let reason = match &refused {
            Err(CkksError::InvalidInput { reason }) => reason.as_str(),
            other => panic!("expected InvalidInput, got {other:?}"),
        };
        assert!(reason.contains("offsets-only"), "{reason}");
    }

    #[test]
    fn bootstrapper_rejects_parameter_sets_without_levels() {
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        assert!(Bootstrapper::new(ctx, BootstrapParams::default()).is_err());
    }

    #[test]
    fn eval_mod_without_levels_reports_the_level_not_the_approximation() {
        // At testing() every candidate meets 2^-32 (the range and cap of bootstrap_testing(),
        // where they are planned) and none can be planned from the top level.
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let top = ctx.params().max_level;
        let errors = [
            Bootstrapper::new(ctx.clone(), BootstrapParams::default()).unwrap_err(),
            Bootstrapper::plan_only(ctx, BootstrapParams::default()).unwrap_err(),
        ];
        for error in errors {
            let CkksError::InvalidParameters { reason } = &error else {
                panic!("expected InvalidParameters, got {error:?}");
            };
            assert!(
                reason.contains(&format!("needs more levels than the top level {top} holds")),
                "{reason}"
            );
            assert!(!reason.starts_with("no EvalMod"), "{reason}");
        }
    }

    #[test]
    fn bootstrapper_rejects_out_of_range_sparse_windows() {
        let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing()).unwrap();
        let slots = ctx.slot_count();
        let literal = [0usize, 1, 3, slots * 2, slots + 1].map(|bad| {
            let params = BootstrapParams {
                sparse_slots: Some(bad),
                ..BootstrapParams::default()
            };
            (bad, params)
        });
        // The scheme-derived constructor has no rule of its own: the same typed error, no panic.
        let derived = [0usize, 1, 3, slots * 2]
            .map(|bad| (bad, BootstrapParams::sparse_for_scheme(ctx.params(), bad)));
        for (bad, params) in literal.into_iter().chain(derived) {
            assert!(
                matches!(
                    Bootstrapper::new(ctx.clone(), params),
                    Err(CkksError::InvalidParameters { .. })
                ),
                "sparse_slots = {bad} must be rejected"
            );
        }
    }

    #[test]
    fn recorded_bootstrap_matches_predicted_trace_exactly() {
        // The closed loop: execute a real bootstrap through the instrumented evaluator and
        // compare the recorded op stream against the analytic plan of the same pipeline.
        // Exact equality (ops, order, levels, phase structure) is required — any drift between
        // what the scheme executes and what the analytic model assumes fails this test.
        let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing()).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(2024);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
        let pk = keygen.public_key(&mut rng);
        let rlk = keygen.relinearization_key(&mut rng);
        let sink = fab_trace::RecordingSink::shared("recorded bootstrap");
        let bootstrapper = Bootstrapper::with_sink(
            ctx.clone(),
            BootstrapParams {
                eval_mod_degree: 159,
                k_range: 16.0,
                fft_iter: 3,
                sparse_slots: None,
            },
            sink.clone(),
        )
        .unwrap();
        let keys = keygen
            .galois_keys(&bootstrapper.required_rotations(), true, &mut rng)
            .unwrap();

        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone(), pk);
        let scale = ctx.params().default_scale();
        let values: Vec<f64> = (0..ctx.slot_count())
            .map(|i| 0.4 * ((i as f64) * 0.05).sin())
            .collect();
        let ct = encryptor
            .encrypt(&encoder.encode_real(&values, scale, 0).unwrap(), &mut rng)
            .unwrap();
        let resident = (&rlk, &keys);
        let demanded = RecordingKeys::new(&resident);
        let _refreshed = bootstrapper.bootstrap_with(&ct, &demanded).unwrap();

        // Demanded == planned: the provider was asked for exactly the predicted key stream.
        assert_eq!(demanded.take(), bootstrapper.predicted_key_refs().unwrap());

        let recorded = sink.take();
        let predicted = bootstrapper.predicted_trace().unwrap();

        assert_eq!(
            recorded.phase_labels(),
            predicted.phase_labels(),
            "phase structure differs"
        );
        for ((r_label, r_counts), (p_label, p_counts)) in recorded
            .phase_counts()
            .iter()
            .zip(predicted.phase_counts().iter())
        {
            assert_eq!(r_label, p_label);
            assert_eq!(
                r_counts, p_counts,
                "per-phase op counts diverge in {r_label}"
            );
        }
        // Beyond counts: the full ordered op streams (with levels) are identical.
        assert_eq!(recorded.ops, predicted.ops);
    }

    #[test]
    fn bsgs_schedule_cuts_bootstrap_keyswitches_below_per_diagonal_baseline() {
        // The tentpole claim in miniature: the planned rotation schedule of the full pipeline
        // performs far fewer key-switched rotations than one rotation per nonzero diagonal.
        let f = fixture();
        let predicted = f.bootstrapper.predicted_trace().unwrap();
        let counts = predicted.counts();
        let planned_rotations = counts.rotate + counts.rotate_hoisted;
        let per_diagonal: usize = f
            .bootstrapper
            .coeff_to_slot_plans()
            .iter()
            .chain(f.bootstrapper.slot_to_coeff_plans().iter())
            .map(|plan| {
                plan.groups()
                    .iter()
                    .map(|g| g.babies.len())
                    .sum::<usize>()
                    .saturating_sub(usize::from(
                        plan.groups()
                            .iter()
                            .any(|g| g.giant == 0 && g.babies.contains(&0)),
                    ))
            })
            .sum();
        assert!(
            (planned_rotations as usize) < per_diagonal,
            "BSGS schedule ({planned_rotations}) must beat per-diagonal ({per_diagonal})"
        );
        // Per stage: at most ⌈d/bs⌉ + bs rotations.
        for plan in f
            .bootstrapper
            .coeff_to_slot_plans()
            .iter()
            .chain(f.bootstrapper.slot_to_coeff_plans().iter())
        {
            let d: usize = plan.groups().iter().map(|g| g.babies.len()).sum();
            let bs = plan.baby_step();
            assert!(plan.rotation_count() <= d.div_ceil(bs) + bs);
        }
    }

    /// Real sparse-slot bootstrap over `s` slots, recorded end to end: the message repeats
    /// every s slots, SubSum projects onto the subring, the tiled sub-FFT stages and the one
    /// packed EvalMod refresh it, the output carries the message repeated every s slots again,
    /// and the recorded op stream equals the planned trace of the same pipeline exactly.
    /// Returns the bootstrapper for shape checks.
    fn assert_sparse_refresh(s: usize) -> Bootstrapper {
        let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing()).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(4242);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
        let pk = keygen.public_key(&mut rng);
        let rlk = keygen.relinearization_key(&mut rng);
        let sink = fab_trace::RecordingSink::shared("recorded sparse bootstrap");
        let bootstrapper =
            Bootstrapper::with_sink(ctx.clone(), sparse_params(s), sink.clone()).unwrap();
        let keys = keygen
            .galois_keys(&bootstrapper.required_rotations(), true, &mut rng)
            .unwrap();

        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone(), pk);
        let decryptor = Decryptor::new(ctx.clone(), sk);
        let scale = ctx.params().default_scale();
        let values: Vec<f64> = (0..ctx.slot_count())
            .map(|i| 0.35 * (((i % s) as f64) * 0.21).sin())
            .collect();
        let ct = encryptor
            .encrypt(&encoder.encode_real(&values, scale, 0).unwrap(), &mut rng)
            .unwrap();

        let resident = (&rlk, &keys);
        let demanded = RecordingKeys::new(&resident);
        let refreshed = bootstrapper.bootstrap_with(&ct, &demanded).unwrap();
        assert!(refreshed.level() >= 2);
        // Demanded == planned, SubSum ladder included.
        let planned = bootstrapper.predicted_key_refs().unwrap();
        assert_eq!(demanded.take(), planned);
        let counts = bootstrapper.predicted_trace().unwrap().counts();
        assert_eq!(
            planned.len() as u64,
            counts.multiply + counts.rotate + counts.rotate_hoisted + counts.conjugate
        );
        let decoded = encoder.decode_real(&decryptor.decrypt(&refreshed).unwrap());
        for (i, (got, want)) in decoded.iter().zip(&values).enumerate() {
            assert!((got - want).abs() < 5e-2, "slot {i}: {got} vs {want}");
        }

        let recorded = sink.take();
        let predicted = bootstrapper.predicted_trace().unwrap();
        assert_eq!(
            recorded.phase_labels(),
            vec![
                phase::MOD_RAISE,
                phase::SUB_SUM,
                phase::COEFF_TO_SLOT,
                phase::EVAL_MOD,
                phase::SLOT_TO_COEFF
            ]
        );
        assert_eq!(recorded.phase_labels(), predicted.phase_labels());
        assert_eq!(recorded.ops, predicted.ops);
        bootstrapper
    }

    #[test]
    fn sparse_bootstrap_refreshes_message_and_matches_predicted_trace() {
        let bootstrapper = assert_sparse_refresh(64);
        assert_eq!(bootstrapper.subsum_steps(), &[64, 128, 256]);
        assert_eq!(bootstrapper.stage_counts(), (3, 3));
    }

    #[test]
    fn half_window_sparse_bootstrap_packs_two_blocks_into_the_whole_slot_vector() {
        // s = n/2: the Re block and the Im block fill the slot vector between them, and the
        // unpack's offset s is its own negation.
        let s = CkksParams::bootstrap_testing().slot_count() / 2;
        let bootstrapper = assert_sparse_refresh(s);
        assert_eq!(bootstrapper.subsum_steps(), &[s]);
    }

    #[test]
    fn for_scheme_derives_reasonable_defaults() {
        let params = CkksParams::bootstrap_testing();
        let bp = BootstrapParams::for_scheme(&params);
        assert!(bp.k_range >= 12.0);
        assert!(bp.eval_mod_degree >= 63);
        assert_eq!(bp.fft_iter, params.fft_iter);
        let non_sparse = CkksParams::fab_paper();
        let bp2 = BootstrapParams::for_scheme(&non_sparse);
        assert!(bp2.k_range > bp.k_range || non_sparse.secret_hamming_weight.is_none());
    }
}

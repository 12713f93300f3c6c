//! Homomorphic linear transforms over the slot vector, represented by their generalized
//! diagonals, plus the factored FFT matrices used by the bootstrapping CoeffToSlot and
//! SlotToCoeff steps.
//!
//! A linear map `M` on the `n` slots is applied homomorphically as
//! `out = Σ_d diag_d(M) ⊙ rotate(ct, d)` where `diag_d(M)[i] = M[i][(i+d) mod n]` and
//! `rotate` is the left slot rotation. The bootstrapping transforms factor the encoding FFT
//! into `ﬀtIter` groups of butterfly stages (Section 2.2 of the paper): a larger `ﬀtIter`
//! means more, sparser matrices (fewer rotations each) but more consumed levels — exactly the
//! trade-off of Figure 2.
//!
//! ## Baby-step/giant-step evaluation
//!
//! Applying a `d`-diagonal transform naively costs one key-switched rotation per nonzero
//! diagonal. The FAB schedule instead regroups the diagonals into a [`BsgsPlan`]: every
//! offset is split as `d = g·n1 + b` (baby step `b < n1`, giant step `g·n1`), the input is
//! rotated once per distinct baby step (all sharing one key-switch decomposition — hoisting,
//! Bossuat et al.), the per-giant partial sums are formed with plaintext multiplications whose
//! diagonals are pre-rotated by `-g·n1`, and each partial sum is rotated once by its giant
//! step. The rotation count drops from `d` to roughly `2·√d` while the result (and the
//! level/scale bookkeeping) is unchanged. The plan is a property of the transform, derived
//! from its offsets when it is built, and [`LinearTransform::apply_with`] has no other way to
//! run. Both interpreters run it, so planning reads the plan and slot count, never a diagonal,
//! and a transform known by its offsets alone ([`LinearTransform::from_offsets`]) plans too.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use fab_math::{Complex64, SpecialFft};
use fab_rns::RnsPolynomial;

use crate::backend::EvalBackend;
use crate::{CkksContext, CkksError, Evaluator, Result};

/// Per-transform cache of encoded, pre-rotated, **NTT-form** diagonal plaintexts, keyed by
/// level and holding one polynomial per `(giant group, baby)` pair of the transform's plan,
/// in plan iteration order. Filled on the first application of the transform at a level;
/// every later application (and every bootstrap iteration reusing the same stage object)
/// performs zero plaintext forward transforms. Shared across clones of the transform.
type NttDiagonalCache = Arc<Mutex<HashMap<usize, Arc<Vec<RnsPolynomial>>>>>;

/// One giant-step group of a [`BsgsPlan`]: the diagonals `{giant + b : b ∈ babies}` are
/// accumulated (with pre-rotated plaintexts) and then rotated once by `giant`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsgsGroup {
    /// The giant-step rotation applied to this group's partial sum (0 for the first group).
    pub giant: usize,
    /// The baby-step offsets used by this group, sorted ascending.
    pub babies: Vec<usize>,
}

/// A baby-step/giant-step rotation schedule for a set of diagonal offsets.
///
/// The plan is pure structure (offsets only, no matrix data), so the same schedule drives the
/// real execution in this crate *and*, through [`LinearTransform::from_offsets`], the stages
/// of a plan-only [`crate::Bootstrapper`], whose planned trace the `fab-core` accelerator
/// model prices — which keeps the two in op-for-op agreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsgsPlan {
    slots: usize,
    baby_step: usize,
    groups: Vec<BsgsGroup>,
}

impl BsgsPlan {
    /// Builds the plan for the given offsets with an explicit baby-step modulus `baby_step`
    /// (`n1` in the literature): offset `d` lands in group `⌊d/n1⌋·n1` with baby step
    /// `d mod n1`.
    ///
    /// # Panics
    ///
    /// Panics if `baby_step` is zero or exceeds `slots`.
    pub fn with_baby_step(slots: usize, offsets: &[usize], baby_step: usize) -> Self {
        assert!(
            baby_step >= 1 && baby_step <= slots,
            "baby step must be in [1, slots]"
        );
        let mut groups: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for &offset in offsets {
            let d = offset % slots;
            groups
                .entry((d / baby_step) * baby_step)
                .or_default()
                .insert(d % baby_step);
        }
        Self {
            slots,
            baby_step,
            groups: groups
                .into_iter()
                .map(|(giant, babies)| BsgsGroup {
                    giant,
                    babies: babies.into_iter().collect(),
                })
                .collect(),
        }
    }

    /// Builds the plan that minimises the total number of key-switched rotations (baby +
    /// giant), searching the power-of-two baby-step moduli. Ties prefer fewer giant steps,
    /// because baby rotations share one hoisted decomposition while every giant rotation pays
    /// for its own.
    pub fn for_offsets(slots: usize, offsets: &[usize]) -> Self {
        let mut best: Option<Self> = None;
        let mut n1 = 1usize;
        while n1 <= slots {
            let candidate = Self::with_baby_step(slots, offsets, n1);
            let better = match &best {
                None => true,
                Some(b) => {
                    (candidate.rotation_count(), candidate.giant_rotation_count())
                        < (b.rotation_count(), b.giant_rotation_count())
                }
            };
            if better {
                best = Some(candidate);
            }
            n1 <<= 1;
        }
        best.expect("at least one candidate baby step")
    }

    /// The slot count the plan was built for.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The baby-step modulus `n1`.
    pub fn baby_step(&self) -> usize {
        self.baby_step
    }

    /// The giant-step groups, sorted by giant offset.
    pub fn groups(&self) -> &[BsgsGroup] {
        &self.groups
    }

    /// All distinct baby-step offsets (including 0 when used), sorted ascending. The nonzero
    /// entries are executed as one hoisted rotation batch on the input ciphertext.
    pub fn baby_offsets(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self
            .groups
            .iter()
            .flat_map(|g| g.babies.iter().copied())
            .collect();
        set.into_iter().collect()
    }

    /// Number of key-switched baby rotations (nonzero baby offsets).
    pub fn baby_rotation_count(&self) -> usize {
        self.baby_offsets().iter().filter(|&&b| b != 0).count()
    }

    /// Number of key-switched giant rotations (nonzero giant offsets).
    pub fn giant_rotation_count(&self) -> usize {
        self.groups.iter().filter(|g| g.giant != 0).count()
    }

    /// Total key-switched rotations the plan performs.
    pub fn rotation_count(&self) -> usize {
        self.baby_rotation_count() + self.giant_rotation_count()
    }

    /// The rotation steps (excluding 0) whose Galois keys the plan needs, sorted and deduped:
    /// the union of nonzero baby and giant offsets.
    pub fn required_rotations(&self) -> Vec<usize> {
        let mut set: BTreeSet<usize> = self
            .baby_offsets()
            .into_iter()
            .filter(|&b| b != 0)
            .collect();
        set.extend(self.groups.iter().map(|g| g.giant).filter(|&g| g != 0));
        set.into_iter().collect()
    }
}

/// A slot-space linear transform in generalized-diagonal representation.
#[derive(Debug, Clone)]
pub struct LinearTransform {
    slots: usize,
    /// Each offset's diagonal: `slots` values, or none for a [`Self::from_offsets`] transform.
    diagonals: BTreeMap<usize, Vec<Complex64>>,
    /// The rotation-minimising schedule for `diagonals`' offsets.
    plan: BsgsPlan,
    /// NTT-form plaintext diagonals, filled per level on first application.
    ntt_diagonals: NttDiagonalCache,
}

impl LinearTransform {
    /// Builds the transform from a dense `n × n` matrix, keeping only nonzero diagonals.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square of size `n × n` with power-of-two `n`.
    pub fn from_matrix(matrix: &[Vec<Complex64>]) -> Self {
        let n = matrix.len();
        assert!(n.is_power_of_two(), "slot count must be a power of two");
        assert!(matrix.iter().all(|row| row.len() == n));
        let mut diagonals: BTreeMap<usize, Vec<Complex64>> = BTreeMap::new();
        for d in 0..n {
            let mut diag = vec![Complex64::zero(); n];
            let mut nonzero = false;
            for (i, value) in diag.iter_mut().enumerate() {
                let v = matrix[i][(i + d) % n];
                if v.norm() > 1e-300 {
                    nonzero = true;
                }
                *value = v;
            }
            if nonzero {
                diagonals.insert(d, diag);
            }
        }
        Self::planned(n, diagonals)
    }

    /// The transform over `diagonals` with the rotation-minimising BSGS plan for their
    /// offsets and an empty NTT-diagonal cache: what every constructor ends in.
    fn planned(slots: usize, diagonals: BTreeMap<usize, Vec<Complex64>>) -> Self {
        let offsets: Vec<usize> = diagonals.keys().copied().collect();
        Self {
            slots,
            diagonals,
            plan: BsgsPlan::for_offsets(slots, &offsets),
            ntt_diagonals: NttDiagonalCache::default(),
        }
    }

    /// Builds the transform directly from its nonzero generalized diagonals.
    ///
    /// # Panics
    ///
    /// Panics if any diagonal has the wrong length or an offset is out of range.
    pub fn from_diagonals(slots: usize, diagonals: BTreeMap<usize, Vec<Complex64>>) -> Self {
        assert!(slots.is_power_of_two());
        for (d, diag) in &diagonals {
            assert!(*d < slots, "diagonal offset out of range");
            assert_eq!(diag.len(), slots, "diagonal length must equal slot count");
        }
        Self::planned(slots, diagonals)
    }

    /// A transform known by its diagonal offsets alone: the rotation-minimising plan and no
    /// diagonal value. On a [`crate::PlanBackend`], [`Self::apply_with`] plans it op for op and
    /// key for key like a valued transform over the same offsets; an [`crate::ExecBackend`]
    /// refuses it with [`CkksError::InvalidInput`], and the value operations
    /// ([`Self::apply_plain`], [`Self::compose`]) panic on it.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two or an offset is out of range.
    pub fn from_offsets(slots: usize, offsets: &[usize]) -> Self {
        assert!(slots.is_power_of_two() && offsets.iter().all(|&d| d < slots));
        Self::planned(slots, offsets.iter().map(|&d| (d, Vec::new())).collect())
    }

    /// The identity transform.
    pub fn identity(slots: usize) -> Self {
        let mut diagonals = BTreeMap::new();
        diagonals.insert(0, vec![Complex64::one(); slots]);
        Self::planned(slots, diagonals)
    }

    /// The transform's BSGS plan: [`Self::apply_with`] executes its baby-step/giant-step
    /// schedule and [`Self::required_rotations`] is its decomposed key set.
    pub fn bsgs_plan(&self) -> &BsgsPlan {
        &self.plan
    }

    /// Replicates a transform over `s` slots to a larger power-of-two slot count by tiling
    /// every diagonal `slots/s` times (offsets are unchanged). For ciphertexts whose slot
    /// vector is `s`-periodic — sparse packing — the tiled transform applies the original
    /// transform block-wise, which is what the sparse-slot bootstrap builds on. The plan is
    /// re-derived for the new slot count.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power-of-two multiple of the current slot count.
    #[must_use]
    pub fn tiled(&self, slots: usize) -> Self {
        assert!(slots.is_power_of_two() && slots.is_multiple_of(self.slots));
        let reps = slots / self.slots;
        let diagonals: BTreeMap<usize, Vec<Complex64>> = self
            .diagonals
            .iter()
            .map(|(&d, diag)| {
                let mut tiled = Vec::with_capacity(slots);
                for _ in 0..reps {
                    tiled.extend_from_slice(diag);
                }
                (d, tiled)
            })
            .collect();
        Self::planned(slots, diagonals)
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The nonzero diagonal offsets.
    pub fn diagonal_offsets(&self) -> Vec<usize> {
        self.diagonals.keys().copied().collect()
    }

    /// Number of nonzero diagonals.
    pub fn diagonal_count(&self) -> usize {
        self.diagonals.len()
    }

    /// The rotation steps (excluding 0, deduplicated) whose Galois keys are needed to apply
    /// this transform homomorphically: the plan's *decomposed* baby/giant set — typically
    /// ~`2√d` keys instead of one per diagonal, which is what keeps `Bootstrapper` setup from
    /// over-generating Galois keys.
    pub fn required_rotations(&self) -> Vec<usize> {
        self.plan.required_rotations()
    }

    /// Scales every diagonal entry by a complex constant (used to fold constants like `1/n` or
    /// `1/2` into a stage instead of spending a ciphertext multiplication on them). The
    /// offsets, and with them the plan, are unchanged; any cached NTT-form diagonals are
    /// invalidated.
    pub fn scale_by(&mut self, factor: Complex64) {
        for diag in self.diagonals.values_mut() {
            for v in diag.iter_mut() {
                *v *= factor;
            }
        }
        self.ntt_diagonals = NttDiagonalCache::default();
    }

    /// Reference (plaintext) application of the transform.
    ///
    /// # Panics
    ///
    /// Panics if the input length differs from the slot count.
    pub fn apply_plain(&self, input: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(input.len(), self.slots);
        let n = self.slots;
        let mut out = vec![Complex64::zero(); n];
        for (d, diag) in &self.diagonals {
            for i in 0..n {
                out[i] += diag[i] * input[(i + d) % n];
            }
        }
        out
    }

    /// Composition `self ∘ other` (apply `other` first, then `self`), computed directly in the
    /// diagonal representation: `diag_d(A·B)[i] = Σ_{d1+d2=d} diag_{d1}(A)[i] · diag_{d2}(B)[(i+d1) mod n]`.
    /// The result carries the plan of its own offset set.
    ///
    /// # Panics
    ///
    /// Panics if the slot counts differ.
    pub fn compose(&self, other: &LinearTransform) -> LinearTransform {
        assert_eq!(self.slots, other.slots);
        let n = self.slots;
        let mut diagonals: BTreeMap<usize, Vec<Complex64>> = BTreeMap::new();
        for (d1, diag_a) in &self.diagonals {
            for (d2, diag_b) in &other.diagonals {
                let d = (d1 + d2) % n;
                let entry = diagonals
                    .entry(d)
                    .or_insert_with(|| vec![Complex64::zero(); n]);
                for i in 0..n {
                    entry[i] += diag_a[i] * diag_b[(i + d1) % n];
                }
            }
        }
        // Drop diagonals that cancelled to zero.
        diagonals.retain(|_, diag| diag.iter().any(|v| v.norm() > 1e-300));
        Self::planned(n, diagonals)
    }

    /// Homomorphic application `Σ_d encode(diag_d) ⊙ rotate(ct, d)` followed by one rescale,
    /// backend-generic (see [`crate::backend`]): the one control flow behind real execution
    /// and analytic planning. The diagonals are encoded at the current rescaling prime, so the
    /// scale is preserved and one level is consumed.
    ///
    /// The distinct baby rotations run as one hoisted batch on the input, every giant group
    /// sums the [`EvalBackend::multiply_diagonal`] products of its pre-rotated diagonals and
    /// pays one rotation, and the group sums are added before the rescale: `babies + giants
    /// ≈ 2·√d` rotations. On real ciphertexts the batch comes back in evaluation form and the
    /// evaluator's domain-aware ops do the rest: products and inner sums stay eval-resident,
    /// and each group returns to coefficient form once, at its giant rotation (an unrotated
    /// group at the outer add, or at the rescale when it is alone) — exactly
    /// [`crate::accounting::bsgs_stage_eval`].
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingKey`] if a required rotation key is missing,
    /// [`CkksError::LevelExhausted`] if the ciphertext has no level to spend, and
    /// [`CkksError::InvalidInput`] for a transform over another slot count or with no
    /// nonzero diagonal.
    pub fn apply_with<B: EvalBackend>(&self, backend: &B, ct: &B::Ct) -> Result<B::Ct> {
        self.check_applicable_at(backend.ctx(), backend.level(ct))?;
        let baby_offsets = self.plan.baby_offsets();
        let rotated = backend.rotate_batch_hoisted(ct, &baby_offsets)?;
        let mut index = 0;
        let mut acc = None;
        for group in self.plan.groups() {
            let mut inner = None;
            for b in &group.babies {
                let baby = &rotated[baby_offsets.binary_search(b).expect("a planned baby")];
                let term = backend.multiply_diagonal(self, index, baby)?;
                index += 1;
                inner = Some(add_onto(backend, term, inner)?);
            }
            // A rotation by 0 is free and records nothing.
            let moved = backend.rotate(&inner.expect("plan groups are non-empty"), group.giant)?;
            acc = Some(add_onto(backend, moved, acc)?);
        }
        let acc = acc.ok_or_else(|| CkksError::InvalidInput {
            reason: "linear transform has no nonzero diagonals".into(),
        })?;
        backend.rescale(&acc)
    }

    /// The plaintext scale of the diagonal at plan position `index` at `level` (the level's
    /// rescale prime), once the stage may run there: the one operand check of
    /// [`EvalBackend::multiply_diagonal`], shared by both interpreters.
    pub(crate) fn diagonal_scale(
        &self,
        ctx: &CkksContext,
        level: usize,
        index: usize,
    ) -> Result<f64> {
        self.check_applicable_at(ctx, level)?;
        if index >= self.diagonals.len() {
            return Err(CkksError::InvalidInput {
                reason: format!(
                    "diagonal {index} is past the plan's {}",
                    self.diagonals.len()
                ),
            });
        }
        Ok(ctx.rescale_prime(level) as f64)
    }

    /// Gets (or fills, on first use at this level) the NTT-form pre-rotated diagonal
    /// plaintexts of the transform's plan, in plan iteration order. The fill pre-rotates
    /// each diagonal by `-giant`, encodes it at `prime` and forward transforms it once; the
    /// `diagonals·(ℓ+1)` forwards are the `warm` term of
    /// [`crate::accounting::bsgs_stage_eval`].
    ///
    /// A poisoned lock is recovered rather than propagated: entries are inserted fully
    /// built, so a panic under the guard (a `fab_par` job panic re-raised inside the fill)
    /// leaves the map valid, and must not turn every later apply of this transform — and of
    /// every clone sharing the cache — into a panic. An offsets-only transform has no value to
    /// encode and is refused with [`CkksError::InvalidInput`].
    pub(crate) fn ntt_diagonal_cache(
        &self,
        evaluator: &Evaluator,
        level: usize,
        prime: f64,
    ) -> Result<Arc<Vec<RnsPolynomial>>> {
        if self.diagonals.values().any(Vec::is_empty) {
            return Err(CkksError::InvalidInput {
                reason: "an offsets-only transform has no diagonal values to execute".into(),
            });
        }
        let mut guard = self
            .ntt_diagonals
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(hit) = guard.get(&level) {
            return Ok(Arc::clone(hit));
        }
        let n = self.slots;
        let basis = evaluator.context().basis_at_level(level)?;
        let mut polys = Vec::new();
        for group in self.plan.groups() {
            for &b in &group.babies {
                // Pre-rotated by -giant, so the group's one giant rotation lands the term on
                // its slots.
                let diag = &self.diagonals[&((group.giant + b) % n)];
                let shifted: Vec<Complex64> =
                    (0..n).map(|j| diag[(j + n - group.giant) % n]).collect();
                let pt = evaluator.encoder().encode(&shifted, prime, level)?;
                let mut poly = pt.poly().clone();
                poly.to_evaluation(&basis);
                polys.push(poly);
            }
        }
        let entry = Arc::new(polys);
        guard.insert(level, Arc::clone(&entry));
        Ok(entry)
    }

    /// The entry validation of [`Self::apply_with`] and [`Self::diagonal_scale`]: a level to
    /// spend and the context's slot count.
    fn check_applicable_at(&self, ctx: &CkksContext, level: usize) -> Result<()> {
        if level == 0 {
            return Err(CkksError::LevelExhausted {
                operation: "linear transform",
            });
        }
        if self.slots != ctx.slot_count() {
            return Err(CkksError::InvalidInput {
                reason: format!(
                    "transform has {} slots but the context provides {}",
                    self.slots,
                    ctx.slot_count()
                ),
            });
        }
        Ok(())
    }
}

/// `term + acc`, or `term` when nothing has been summed yet. The new term is on the left:
/// `add` keeps its left operand's form, so a rotated (coefficient-form) group sum converts an
/// eval-resident accumulator once instead of being promoted itself.
fn add_onto<B: EvalBackend>(backend: &B, term: B::Ct, acc: Option<B::Ct>) -> Result<B::Ct> {
    match acc {
        None => Ok(term),
        Some(acc) => backend.add(&term, &acc),
    }
}

/// Builds the butterfly-stage factors of the *forward* special FFT (used by SlotToCoeff),
/// without the bit-reversal permutation, grouped into `groups` matrices (`groups = 0` keeps
/// one matrix per butterfly stage). Omitting the bit reversal is sound inside bootstrapping
/// because the element-wise EvalMod step commutes with any fixed slot permutation, so the
/// permutations introduced by CoeffToSlot and SlotToCoeff cancel.
pub fn slot_to_coeff_stages(fft: &SpecialFft, groups: usize) -> Vec<LinearTransform> {
    let stages = forward_butterfly_stages(fft);
    group_stages(stages, groups)
}

/// Builds the butterfly-stage factors of the *inverse* special FFT (used by CoeffToSlot),
/// without the bit-reversal permutation and with the `1/n` normalisation folded into the last
/// stage, grouped into `groups` matrices.
pub fn coeff_to_slot_stages(fft: &SpecialFft, groups: usize) -> Vec<LinearTransform> {
    let mut stages = inverse_butterfly_stages(fft);
    if let Some(last) = stages.last_mut() {
        last.scale_by(Complex64::new(1.0 / fft.slots() as f64, 0.0));
    }
    group_stages(stages, groups)
}

/// The diagonal-offset sets of the grouped CoeffToSlot stages, computed *structurally* (no
/// matrix data): each butterfly level contributes offsets `{0, ±lenh mod n}` and grouping
/// composes the sets additively. [`crate::Bootstrapper::plan_only`] builds its stages from
/// these sets (via [`LinearTransform::from_offsets`]) without materialising any diagonal,
/// [`crate::CkksParams::bootstrap_depth`] counts them, and the crate's tests pin them against
/// the offsets of the composed stages.
pub fn coeff_to_slot_offset_sets(slots: usize, groups: usize) -> Vec<Vec<usize>> {
    let mut stages = Vec::new();
    let mut len = slots;
    while len >= 2 {
        stages.push(butterfly_offsets(slots, len >> 1));
        len >>= 1;
    }
    group_offset_sets(slots, stages, groups)
}

/// The diagonal-offset sets of the grouped SlotToCoeff stages (see
/// [`coeff_to_slot_offset_sets`]).
pub fn slot_to_coeff_offset_sets(slots: usize, groups: usize) -> Vec<Vec<usize>> {
    let mut stages = Vec::new();
    let mut len = 2usize;
    while len <= slots {
        stages.push(butterfly_offsets(slots, len >> 1));
        len <<= 1;
    }
    group_offset_sets(slots, stages, groups)
}

fn butterfly_offsets(slots: usize, lenh: usize) -> BTreeSet<usize> {
    [0, lenh % slots, (slots - lenh) % slots]
        .into_iter()
        .collect()
}

/// Composes per-stage offset sets with the same chunking as [`group_stages`].
fn group_offset_sets(slots: usize, stages: Vec<BTreeSet<usize>>, groups: usize) -> Vec<Vec<usize>> {
    let total = stages.len();
    let per_group = if groups == 0 || groups >= total {
        1
    } else {
        total.div_ceil(groups)
    };
    let mut out = Vec::new();
    for chunk in stages.chunks(per_group) {
        let mut combined: BTreeSet<usize> = chunk[0].clone();
        for stage in &chunk[1..] {
            combined = combined
                .iter()
                .flat_map(|&a| stage.iter().map(move |&b| (a + b) % slots))
                .collect();
        }
        out.push(combined.into_iter().collect());
    }
    out
}

/// The forward butterfly stages (len = 2, 4, …, n), in application order.
fn forward_butterfly_stages(fft: &SpecialFft) -> Vec<LinearTransform> {
    let n = fft.slots();
    let m = 2 * fft.degree();
    let rot_group = fft.rotation_group();
    let mut stages = Vec::new();
    let mut len = 2usize;
    while len <= n {
        let lenh = len >> 1;
        let lenq = len << 2;
        let mut diag0 = vec![Complex64::zero(); n];
        let mut diag_plus = vec![Complex64::zero(); n];
        let mut diag_minus = vec![Complex64::zero(); n];
        for p in 0..n {
            let j = p % len;
            if j < lenh {
                // out[p] = in[p] + w_j * in[p + lenh]
                let idx = (rot_group[j] % lenq) * (m / lenq);
                let w = unit_root(idx, m);
                diag0[p] = Complex64::one();
                diag_plus[p] = w;
            } else {
                // out[p] = in[p - lenh] - w_{j-lenh} * in[p]
                let idx = (rot_group[j - lenh] % lenq) * (m / lenq);
                let w = unit_root(idx, m);
                diag0[p] = -w;
                diag_minus[p] = Complex64::one();
            }
        }
        stages.push(make_stage(n, lenh, diag0, diag_plus, diag_minus));
        len <<= 1;
    }
    stages
}

/// The inverse butterfly stages (len = n, n/2, …, 2), in application order.
fn inverse_butterfly_stages(fft: &SpecialFft) -> Vec<LinearTransform> {
    let n = fft.slots();
    let m = 2 * fft.degree();
    let rot_group = fft.rotation_group();
    let mut stages = Vec::new();
    let mut len = n;
    while len >= 2 {
        let lenh = len >> 1;
        let lenq = len << 2;
        let mut diag0 = vec![Complex64::zero(); n];
        let mut diag_plus = vec![Complex64::zero(); n];
        let mut diag_minus = vec![Complex64::zero(); n];
        for p in 0..n {
            let j = p % len;
            if j < lenh {
                // out[p] = in[p] + in[p + lenh]
                diag0[p] = Complex64::one();
                diag_plus[p] = Complex64::one();
            } else {
                // out[p] = (in[p - lenh] - in[p]) * w'_{j-lenh}
                let idx = (lenq - (rot_group[j - lenh] % lenq)) * (m / lenq);
                let w = unit_root(idx, m);
                diag0[p] = -w;
                diag_minus[p] = w;
            }
        }
        stages.push(make_stage(n, lenh, diag0, diag_plus, diag_minus));
        len >>= 1;
    }
    stages
}

fn unit_root(index: usize, m: usize) -> Complex64 {
    Complex64::from_polar(
        1.0,
        2.0 * std::f64::consts::PI * (index % m) as f64 / m as f64,
    )
}

fn make_stage(
    n: usize,
    lenh: usize,
    diag0: Vec<Complex64>,
    diag_plus: Vec<Complex64>,
    diag_minus: Vec<Complex64>,
) -> LinearTransform {
    let mut diagonals = BTreeMap::new();
    if diag0.iter().any(|v| v.norm() > 0.0) {
        diagonals.insert(0usize, diag0);
    }
    // +lenh and n-lenh may coincide when lenh == n/2; merge the two contributions.
    let plus_offset = lenh % n;
    let minus_offset = (n - lenh) % n;
    if plus_offset == minus_offset {
        let merged: Vec<Complex64> = diag_plus
            .iter()
            .zip(diag_minus.iter())
            .map(|(a, b)| *a + *b)
            .collect();
        if merged.iter().any(|v| v.norm() > 0.0) {
            diagonals.insert(plus_offset, merged);
        }
    } else {
        if diag_plus.iter().any(|v| v.norm() > 0.0) {
            diagonals.insert(plus_offset, diag_plus);
        }
        if diag_minus.iter().any(|v| v.norm() > 0.0) {
            diagonals.insert(minus_offset, diag_minus);
        }
    }
    LinearTransform::from_diagonals(n, diagonals)
}

/// Groups consecutive stages into `groups` composed matrices (0 or >= stage count keeps one
/// matrix per stage). Within a group the stages are composed in application order.
fn group_stages(stages: Vec<LinearTransform>, groups: usize) -> Vec<LinearTransform> {
    let total = stages.len();
    if groups == 0 || groups >= total {
        return stages;
    }
    let per_group = total.div_ceil(groups);
    let mut out = Vec::with_capacity(groups);
    let mut iter = stages.into_iter();
    loop {
        let chunk: Vec<LinearTransform> = iter.by_ref().take(per_group).collect();
        if chunk.is_empty() {
            break;
        }
        let mut combined = chunk[0].clone();
        for stage in chunk.iter().skip(1) {
            combined = stage.compose(&combined);
        }
        out.push(combined);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Ciphertext, CkksParams, Decryptor, Encoder, Encryptor, ExecBackend, GaloisKeys,
        KeyGenerator, PlanBackend, PlanCiphertext, SecretKey,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use std::sync::Arc;

    fn random_slots(n: usize, seed: u64) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                let x = ((i as f64 + seed as f64) * 0.61).sin();
                let y = ((i as f64 * 1.3 + seed as f64) * 0.27).cos();
                Complex64::new(x, y)
            })
            .collect()
    }

    /// Keys, codec and RNG over `CkksParams::testing()` for the homomorphic tests below.
    struct Fixture {
        ctx: Arc<CkksContext>,
        keygen: KeyGenerator,
        encoder: Encoder,
        encryptor: Encryptor,
        decryptor: Decryptor,
        rng: ChaCha20Rng,
    }

    fn fixture(seed: u64) -> Fixture {
        let ctx = CkksContext::new_arc(CkksParams::testing()).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
        let pk = keygen.public_key(&mut rng);
        Fixture {
            encoder: Encoder::new(ctx.clone()),
            encryptor: Encryptor::new(ctx.clone(), pk),
            decryptor: Decryptor::new(ctx.clone(), sk),
            ctx,
            keygen,
            rng,
        }
    }

    impl Fixture {
        /// `input` encrypted at level 3 and the default scale.
        fn encrypt(&mut self, input: &[Complex64]) -> Ciphertext {
            let scale = self.ctx.params().default_scale();
            let pt = self.encoder.encode(input, scale, 3).unwrap();
            self.encryptor.encrypt(&pt, &mut self.rng).unwrap()
        }

        /// Galois keys for exactly the rotations `lt` needs.
        fn keys_for(&mut self, lt: &LinearTransform) -> GaloisKeys {
            self.keygen
                .galois_keys(&lt.required_rotations(), false, &mut self.rng)
                .unwrap()
        }
    }

    #[test]
    fn diagonal_extraction_matches_dense_application() {
        let n = 8;
        let matrix: Vec<Vec<Complex64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if (i + j) % 3 == 0 {
                            Complex64::new(i as f64 + 1.0, j as f64 - 2.0)
                        } else {
                            Complex64::zero()
                        }
                    })
                    .collect()
            })
            .collect();
        let lt = LinearTransform::from_matrix(&matrix);
        let input = random_slots(n, 3);
        let by_diag = lt.apply_plain(&input);
        for i in 0..n {
            let mut expected = Complex64::zero();
            for j in 0..n {
                expected += matrix[i][j] * input[j];
            }
            assert!((by_diag[i] - expected).norm() < 1e-9);
        }
    }

    #[test]
    fn identity_transform_is_identity() {
        let lt = LinearTransform::identity(16);
        let input = random_slots(16, 1);
        let out = lt.apply_plain(&input);
        for (a, b) in out.iter().zip(&input) {
            assert!((*a - *b).norm() < 1e-12);
        }
        assert_eq!(lt.diagonal_count(), 1);
        assert!(lt.required_rotations().is_empty());
    }

    #[test]
    fn compose_matches_sequential_application() {
        let n = 16;
        let fft = SpecialFft::new(2 * n).unwrap();
        let stages = forward_butterfly_stages(&fft);
        let a = &stages[0];
        let b = &stages[1];
        let composed = b.compose(a);
        let input = random_slots(n, 7);
        let sequential = b.apply_plain(&a.apply_plain(&input));
        let direct = composed.apply_plain(&input);
        for i in 0..n {
            assert!((sequential[i] - direct[i]).norm() < 1e-9);
        }
    }

    #[test]
    fn butterfly_stages_compose_to_the_special_fft_up_to_bit_reversal() {
        // Applying all forward stages to a bit-reversed input must equal the library FFT.
        let n = 32;
        let fft = SpecialFft::new(2 * n).unwrap();
        let stages = forward_butterfly_stages(&fft);
        let input = random_slots(n, 11);
        let mut reference = input.clone();
        fft.forward(&mut reference);
        let mut bit_reversed = input.clone();
        fab_math::bit_reverse_permute(&mut bit_reversed);
        let mut staged = bit_reversed;
        for stage in &stages {
            staged = stage.apply_plain(&staged);
        }
        for i in 0..n {
            assert!(
                (staged[i] - reference[i]).norm() < 1e-8,
                "slot {i}: {} vs {}",
                staged[i],
                reference[i]
            );
        }
    }

    #[test]
    fn inverse_stages_invert_forward_stages_up_to_permutation_and_scaling() {
        let n = 32;
        let fft = SpecialFft::new(2 * n).unwrap();
        let forward = forward_butterfly_stages(&fft);
        let inverse = inverse_butterfly_stages(&fft);
        let input = random_slots(n, 13);
        // forward stages then inverse stages (with 1/n) must give back the input, because the
        // bit-reversal permutations cancel between the two passes.
        let mut x = input.clone();
        for stage in &forward {
            x = stage.apply_plain(&x);
        }
        for stage in &inverse {
            x = stage.apply_plain(&x);
        }
        for v in x.iter_mut() {
            *v = *v * (1.0 / n as f64);
        }
        for i in 0..n {
            assert!((x[i] - input[i]).norm() < 1e-8, "slot {i}");
        }
    }

    #[test]
    fn grouped_stages_match_ungrouped_product() {
        let n = 64;
        let fft = SpecialFft::new(2 * n).unwrap();
        let input = random_slots(n, 17);
        let ungrouped = slot_to_coeff_stages(&fft, 0);
        let grouped = slot_to_coeff_stages(&fft, 2);
        assert_eq!(ungrouped.len(), 6);
        assert_eq!(grouped.len(), 2);
        let mut a = input.clone();
        for s in &ungrouped {
            a = s.apply_plain(&a);
        }
        let mut b = input.clone();
        for s in &grouped {
            b = s.apply_plain(&b);
        }
        for i in 0..n {
            assert!((a[i] - b[i]).norm() < 1e-8);
        }
        // Merged stages trade rotations for depth: fewer matrices, more diagonals each.
        assert!(grouped[0].diagonal_count() > ungrouped[0].diagonal_count());
    }

    #[test]
    fn structural_offset_sets_match_composed_stage_offsets() {
        // The analytic offset sets (which fab-core prices the FPGA workload from) must agree
        // with the offsets of the actually-composed stage matrices, for every grouping.
        for n in [32usize, 256] {
            let fft = SpecialFft::new(2 * n).unwrap();
            for groups in [0usize, 2, 3, 4] {
                let stc = slot_to_coeff_stages(&fft, groups);
                let stc_offsets = slot_to_coeff_offset_sets(n, groups);
                assert_eq!(stc.len(), stc_offsets.len(), "n={n} groups={groups}");
                for (stage, offsets) in stc.iter().zip(&stc_offsets) {
                    assert_eq!(
                        &stage.diagonal_offsets(),
                        offsets,
                        "slot_to_coeff n={n} groups={groups}"
                    );
                }
                let cts = coeff_to_slot_stages(&fft, groups);
                let cts_offsets = coeff_to_slot_offset_sets(n, groups);
                assert_eq!(cts.len(), cts_offsets.len());
                for (stage, offsets) in cts.iter().zip(&cts_offsets) {
                    assert_eq!(
                        &stage.diagonal_offsets(),
                        offsets,
                        "coeff_to_slot n={n} groups={groups}"
                    );
                }
            }
        }
    }

    #[test]
    fn bsgs_plan_covers_all_offsets_and_cuts_rotations() {
        let n = 1024usize;
        // A dense band of 64 diagonals: naive evaluation needs 63 rotations.
        let offsets: Vec<usize> = (0..64).collect();
        let plan = BsgsPlan::for_offsets(n, &offsets);
        // Every offset is reachable as giant + baby.
        let mut covered = BTreeSet::new();
        for group in plan.groups() {
            for &b in &group.babies {
                covered.insert((group.giant + b) % n);
            }
        }
        assert_eq!(covered, offsets.iter().copied().collect());
        // ⌈d/bs⌉ + bs bound, and far fewer than naive.
        let bs = plan.baby_step();
        assert!(plan.rotation_count() <= 64usize.div_ceil(bs) + bs);
        assert!(
            plan.rotation_count() <= 16,
            "expected ~2·√64 rotations, got {}",
            plan.rotation_count()
        );
        // The key set is the decomposed union, not the raw offsets.
        assert!(plan.required_rotations().len() < 63);
    }

    #[test]
    fn bsgs_plan_with_explicit_baby_step_splits_offsets() {
        let plan = BsgsPlan::with_baby_step(64, &[0, 3, 17, 35], 16);
        let giants: Vec<usize> = plan.groups().iter().map(|g| g.giant).collect();
        assert_eq!(giants, vec![0, 16, 32]);
        assert_eq!(plan.groups()[0].babies, vec![0, 3]);
        assert_eq!(plan.groups()[1].babies, vec![1]);
        assert_eq!(plan.groups()[2].babies, vec![3]);
        assert_eq!(plan.baby_offsets(), vec![0, 1, 3]);
        assert_eq!(plan.baby_rotation_count(), 2);
        assert_eq!(plan.giant_rotation_count(), 2);
        assert_eq!(plan.required_rotations(), vec![1, 3, 16, 32]);
    }

    #[test]
    fn plan_attachment_shrinks_required_rotations() {
        let n = 256usize;
        let mut diagonals = BTreeMap::new();
        for d in 0..40usize {
            diagonals.insert(d, vec![Complex64::new(1.0 + d as f64, 0.0); n]);
        }
        let planned = LinearTransform::from_diagonals(n, diagonals);
        let keys = planned.required_rotations();
        // The key set is the plan's decomposed baby/giant set, not one key per diagonal.
        assert_eq!(keys, planned.bsgs_plan().required_rotations());
        assert!(keys.len() < planned.diagonal_count());
        assert!(keys.len() < 20, "BSGS key set still {} entries", keys.len());
        // Deduped, sorted, zero-free.
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(!keys.contains(&0));
    }

    #[test]
    fn tiled_transform_applies_blockwise_to_periodic_inputs() {
        let s = 8usize;
        let n = 32usize;
        let mut diagonals = BTreeMap::new();
        diagonals.insert(1usize, random_slots(s, 5));
        diagonals.insert(3usize, random_slots(s, 9));
        let small = LinearTransform::from_diagonals(s, diagonals);
        let tiled = small.tiled(n);
        assert_eq!(tiled.slots(), n);
        let block = random_slots(s, 21);
        let periodic: Vec<Complex64> = (0..n).map(|i| block[i % s]).collect();
        let big = tiled.apply_plain(&periodic);
        let small_out = small.apply_plain(&block);
        for i in 0..n {
            assert!((big[i] - small_out[i % s]).norm() < 1e-9, "slot {i}");
        }
    }

    #[test]
    fn homomorphic_application_matches_plain_application() {
        let mut f = fixture(31);
        let evaluator = Evaluator::new(f.ctx.clone());

        // A small circulant-ish transform with three diagonals on the full slot count.
        let n = f.ctx.slot_count();
        let mut diagonals = BTreeMap::new();
        diagonals.insert(0usize, vec![Complex64::new(0.5, 0.0); n]);
        diagonals.insert(1usize, vec![Complex64::new(0.25, 0.1); n]);
        diagonals.insert(3usize, vec![Complex64::new(-0.75, 0.0); n]);
        let lt = LinearTransform::from_diagonals(n, diagonals);

        let keys = f.keys_for(&lt);
        let input = random_slots(n, 23);
        let ct = f.encrypt(&input);
        let out_ct = lt
            .apply_with(&ExecBackend::new(&evaluator, &keys), &ct)
            .unwrap();
        assert_eq!(out_ct.level(), 2);
        let decoded = f.encoder.decode(&f.decryptor.decrypt(&out_ct).unwrap());
        let expected = lt.apply_plain(&input);
        for i in 0..64 {
            assert!(
                (decoded[i] - expected[i]).norm() < 1e-2,
                "slot {i}: {} vs {}",
                decoded[i],
                expected[i]
            );
        }
    }

    /// `acc + term`, or `term` when nothing has been summed yet.
    fn sum(evaluator: &Evaluator, acc: Option<Ciphertext>, term: Ciphertext) -> Ciphertext {
        match acc {
            None => term,
            Some(acc) => evaluator.add(&acc, &term).unwrap(),
        }
    }

    /// The stage by its definition, coefficient-resident throughout: the hoisted baby batch,
    /// one encoded `multiply_plain` per diagonal pre-rotated by `-giant`, one `rotate` per
    /// group sum, one `rescale`.
    fn apply_by_definition(
        lt: &LinearTransform,
        evaluator: &Evaluator,
        keys: &GaloisKeys,
        ct: &Ciphertext,
    ) -> Ciphertext {
        let (n, level) = (lt.slots, ct.level());
        let prime = evaluator.context().rescale_prime(level) as f64;
        let babies = lt.plan.baby_offsets();
        let rotated = evaluator.rotate_hoisted_batch(ct, &babies, keys).unwrap();
        let mut acc = None;
        for group in lt.plan.groups() {
            let mut inner = None;
            for &b in &group.babies {
                let diag = &lt.diagonals[&((group.giant + b) % n)];
                let shifted: Vec<Complex64> =
                    (0..n).map(|j| diag[(j + n - group.giant) % n]).collect();
                let pt = evaluator.encoder().encode(&shifted, prime, level).unwrap();
                let source = &rotated[babies.binary_search(&b).unwrap()];
                let term = evaluator.multiply_plain(source, &pt).unwrap();
                inner = Some(sum(evaluator, inner, term));
            }
            let moved = evaluator
                .rotate(&inner.unwrap(), group.giant, keys)
                .unwrap();
            acc = Some(sum(evaluator, acc, moved));
        }
        evaluator.rescale(&acc.unwrap()).unwrap()
    }

    #[test]
    fn eval_resident_stage_matches_its_coefficient_definition_bitwise() {
        // `apply_with` on real ciphertexts (babies promoted once, NTT-cached diagonals, one
        // inverse pair per giant group) against the stage's coefficient-resident definition,
        // on a bootstrap CoeffToSlot stage — on the cache-filling apply and on a warm one.
        let mut f = fixture(77);
        let stage = coeff_to_slot_stages(f.ctx.fft(), f.ctx.params().fft_iter)
            .into_iter()
            .next()
            .expect("at least one CoeffToSlot stage");
        let keys = f.keys_for(&stage);
        let ct = f.encrypt(&random_slots(f.ctx.slot_count(), 79));
        let evaluator = Evaluator::new(f.ctx.clone());
        let backend = ExecBackend::new(&evaluator, &keys);
        let definition = apply_by_definition(&stage, &evaluator, &keys, &ct);
        for pass in ["cache-filling", "warm"] {
            let exec = stage.apply_with(&backend, &ct).unwrap();
            assert_eq!(
                exec.c0(),
                definition.c0(),
                "BSGS stage diverged ({pass}, c0)"
            );
            assert_eq!(
                exec.c1(),
                definition.c1(),
                "BSGS stage diverged ({pass}, c1)"
            );
        }
    }

    #[test]
    fn a_poisoned_diagonal_cache_lock_is_recovered() {
        let mut f = fixture(83);
        let n = f.ctx.slot_count();
        let mut diagonals = BTreeMap::new();
        for d in [0usize, 1, 3] {
            diagonals.insert(d, random_slots(n, 70 + d as u64));
        }
        let lt = LinearTransform::from_diagonals(n, diagonals);
        let keys = f.keys_for(&lt);
        let ct = f.encrypt(&random_slots(n, 73));
        let evaluator = Evaluator::new(f.ctx.clone());
        let before = lt
            .apply_with(&ExecBackend::new(&evaluator, &keys), &ct)
            .unwrap();

        // A thread that panics while holding the guard poisons the lock ...
        let cache = Arc::clone(&lt.ntt_diagonals);
        let panicked = std::thread::spawn(move || {
            let _guard = cache.lock().unwrap();
            panic!("poisoning the diagonal cache on purpose");
        })
        .join();
        assert!(panicked.is_err() && lt.ntt_diagonals.is_poisoned());
        // ... and every later apply, of a clone sharing the cache too, still runs on the
        // entries that were inserted fully built.
        let after = lt
            .clone()
            .apply_with(&ExecBackend::new(&evaluator, &keys), &ct)
            .unwrap();
        assert_eq!(after.c0(), before.c0());
        assert_eq!(after.c1(), before.c1());
    }

    #[test]
    fn an_offsets_only_transform_plans_like_the_valued_one_and_does_not_execute() {
        let mut f = fixture(89);
        let n = f.ctx.slot_count();
        let valued = coeff_to_slot_stages(f.ctx.fft(), f.ctx.params().fft_iter).remove(0);
        let bare = LinearTransform::from_offsets(n, &valued.diagonal_offsets());
        assert!(valued.bsgs_plan().groups().len() > 1);
        assert_eq!(bare.bsgs_plan(), valued.bsgs_plan());
        // The same result, op stream and key stream from a PlanBackend.
        let planned = |lt: &LinearTransform| {
            let plan = || PlanBackend::new(f.ctx.clone(), "stage");
            let input = PlanCiphertext::new(3, f.ctx.params().default_scale());
            let (ops, keys) = (plan(), plan());
            let out = lt.apply_with(&ops, &input).unwrap();
            assert_eq!(lt.apply_with(&keys, &input).unwrap(), out);
            (out, ops.into_trace().ops, keys.into_key_refs())
        };
        assert_eq!(planned(&bare), planned(&valued));
        // Executing it needs the values it does not have: a typed refusal, not a panic.
        let bare = LinearTransform::from_offsets(n, &[0, 1, 3]);
        let keys = f.keys_for(&bare);
        let ct = f.encrypt(&random_slots(n, 97));
        let evaluator = Evaluator::new(f.ctx.clone());
        assert!(matches!(
            bare.apply_with(&ExecBackend::new(&evaluator, &keys), &ct),
            Err(CkksError::InvalidInput { .. })
        ));
    }

    #[test]
    fn bsgs_application_matches_naive_application_and_cuts_keyswitches() {
        let mut f = fixture(41);
        // A 12-diagonal band: one rotation per nonzero diagonal would need 11, BSGS far fewer.
        let n = f.ctx.slot_count();
        let mut diagonals = BTreeMap::new();
        for d in 0..12usize {
            let values: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(((i + d) as f64 * 0.11).sin() * 0.4, 0.02 * d as f64))
                .collect();
            diagonals.insert(d, values);
        }
        let bsgs = LinearTransform::from_diagonals(n, diagonals);
        let per_diagonal = bsgs.diagonal_offsets().iter().filter(|&&d| d != 0).count();
        assert_eq!(per_diagonal, 11);
        let keys = f.keys_for(&bsgs);
        assert!(keys.len() < per_diagonal);

        let input = random_slots(n, 51);
        let ct = f.encrypt(&input);
        let sink = fab_trace::RecordingSink::shared("bsgs");
        let evaluator = Evaluator::with_sink(f.ctx.clone(), sink.clone());
        let out = bsgs
            .apply_with(&ExecBackend::new(&evaluator, &keys), &ct)
            .unwrap();

        // The level/scale bookkeeping of the definition (every term one plaintext product,
        // one rescale at the end) and its result — `Σ_d diag_d ⊙ rot_d(input)` — within noise.
        assert_eq!(out.level(), ct.level() - 1);
        assert!((out.scale() / ct.scale() - 1.0).abs() < 1e-9);
        let decoded = f.encoder.decode(&f.decryptor.decrypt(&out).unwrap());
        let expected = bsgs.apply_plain(&input);
        for i in 0..64 {
            assert!((decoded[i] - expected[i]).norm() < 1e-2, "bsgs slot {i}");
        }

        // Rotation-count regression: the BSGS trace performs at most ⌈d/bs⌉ + bs rotations,
        // fewer than one per nonzero diagonal.
        let counts = sink.take().counts();
        let rotations = (counts.rotate + counts.rotate_hoisted) as usize;
        let bs = bsgs.bsgs_plan().baby_step();
        assert!(rotations <= 12usize.div_ceil(bs) + bs);
        assert!(rotations < per_diagonal);
        // The op mix outside rotations is the definition's: d plaintext products, d−1 adds,
        // 1 rescale.
        assert_eq!(counts.multiply_plain, 12);
        assert_eq!(counts.add, 11);
        assert_eq!(counts.rescale, 1);
    }
}

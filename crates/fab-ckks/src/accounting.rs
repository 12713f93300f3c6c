//! Closed-form cost accounting for the evaluator's hot operations: one formula per
//! operation, returning the [`Tally`] (NTT transforms and bytes moved) it charges.
//!
//! Timings drift with machines and schedulers; *operation counts* do not. Following the
//! hardware-performance-monitoring argument (Röhl et al.), every hot path in this crate has a
//! closed-form expected cost, and the workspace's `tests/{op,ntt,bytes}_accounting.rs` assert
//! that what the substrate actually charged ([`fab_rns::metering::tally`]) equals the
//! formula, transforms and bytes both, so a future change that silently adds transforms or
//! traffic fails loudly instead of just getting slower.
//!
//! Every formula is a sum of [`fab_rns::metering::kernel`] costs, the same helpers the
//! kernels charge at their call sites. An NTT row cost carries its transform, so the
//! transform count of each formula is simply the NTT rows it lists. Traffic is counted at
//! row-pass granularity over the flat limb-major layout (see [`fab_rns::metering`]); the
//! KSKIP's overflow folds and the conversion's running sums happen in registers and move no
//! bytes, so neither appears in a formula.
//!
//! Notation: a ciphertext at level `ℓ` has `limbs = ℓ + 1` `Q`-limbs of `degree`
//! coefficients, `special = |P| = k` extension limbs, `raised = limbs + special` raised
//! limbs, and the hybrid key switch uses `β = ⌈limbs / α⌉` digits of (up to) `α` limbs.
//!
//! The transform counts below are the **minimum** the hybrid datapath admits and what the
//! transform-minimal pipeline executes:
//!
//! * key switch (coefficient operand): `β·raised` forward (every digit row exactly once,
//!   batched) + `2·raised` inverse (the two KSKIP accumulators);
//! * key switch (**dual-form**, evaluation operand): `β·raised − limbs` forward — the
//!   operand's rows are reused verbatim as the digits' own raised rows — plus `limbs` extra
//!   inverses feeding the coefficient-domain ModUp conversions;
//! * multiply: the tensor products never round-trip — `d2` enters the key switch dual-form
//!   and `d0`/`d1` are absorbed as `P·d` into the KSKIP accumulators **before** the
//!   accumulator inverse, so none of the three pays an inverse of its own;
//! * hoisted rotation batch: the `β·raised` forward sweep is paid **once** for the whole
//!   batch — each rotation permutes the transformed digits in evaluation domain instead of
//!   re-transforming them;
//! * eval-resident BSGS stage: plaintext diagonals are NTT-cached in the plan (zero
//!   plaintext forwards after warm-up), babies are promoted to evaluation form once each,
//!   and the partial sums pay one inverse pair per giant **group** instead of per diagonal
//!   ([`bsgs_stage_eval`]);
//! * fused ModDown+rescale (`multiply_rescale`): identical transform count to `multiply` —
//!   basis conversions are NTT-free, so the fusion saves conversion traffic, not transforms;
//! * real constants (`multiply_const`, `accumulate_const`, `add_scalar`, and through them
//!   `multiply_scalar`, `match_scale` and the Chebyshev leaf): **zero** transforms in either
//!   domain — a constant is a per-limb scalar, never a transformed plaintext polynomial —
//!   so their cost is traffic only ([`multiply_const`], [`accumulate_const`]).

use fab_rns::metering::kernel;
pub use fab_rns::metering::Tally;

use crate::BsgsPlan;

/// The shared digit raise (`raise_digits`): the hoisted conversion products over the
/// `limbs` source rows, the digit rows' own entry into evaluation form (`limbs` lazy
/// forwards — or, dual-form, `limbs` batched inverses feeding the coefficient-domain
/// conversions), and per digit one lazy conversion + lazy forward for each of its
/// `raised - len_j` extension rows.
fn raise(degree: usize, limbs: usize, special: usize, alpha: usize, dual: bool) -> Tally {
    let beta = limbs.div_ceil(alpha);
    let raised = limbs + special;
    let mut cost = kernel::hoisted_products(degree, limbs);
    cost += if dual {
        kernel::ntt_inverse(degree).times(limbs as u64)
    } else {
        kernel::ntt_forward_lazy(degree).times(limbs as u64)
    };
    for j in 0..beta {
        let len = ((j + 1) * alpha).min(limbs) - j * alpha;
        cost += (kernel::convert_row_lazy(degree, len) + kernel::ntt_forward_lazy(degree))
            .times((raised - len) as u64);
    }
    cost
}

/// The u128 KSKIP accumulation (one [`kernel::kskip_row`] per raised limb over the `β`
/// digits) and the batched inverse of both accumulators.
fn kskip_and_invert(
    degree: usize,
    limbs: usize,
    special: usize,
    alpha: usize,
    permuted: bool,
) -> Tally {
    let beta = limbs.div_ceil(alpha);
    let raised = (limbs + special) as u64;
    kernel::kskip_row(degree, beta, permuted).times(raised)
        + kernel::ntt_inverse(degree).times(2 * raised)
}

/// The tensor half of a multiplication on coefficient-form operands: four operand forwards,
/// the three pointwise tensor products plus one fused multiply-add, and the
/// evaluation-domain `P·d` absorption of `d0`/`d1` into the KSKIP accumulators.
fn tensor(degree: usize, limbs: usize) -> Tally {
    kernel::ntt_forward(degree).times(4 * limbs as u64)
        + kernel::pointwise_binary(degree, limbs).times(3)
        + kernel::fused_multiply_add(degree, limbs)
        + kernel::absorb(degree, limbs).times(2)
}

/// One hybrid key switch of a **coefficient-form** operand: the digit raise, the KSKIP
/// inner product, both accumulator inverse batches, and both ModDowns — `β·raised`
/// forwards, `2·raised` inverses.
pub fn key_switch(degree: usize, limbs: usize, special: usize, alpha: usize) -> Tally {
    raise(degree, limbs, special, alpha, false)
        + kskip_and_invert(degree, limbs, special, alpha, false)
        + kernel::mod_down(degree, limbs, special).times(2)
}

/// One **dual-form** hybrid key switch — the operand arrives in evaluation form (a tensor
/// product `d2`): its rows are reused verbatim as the digits' own raised rows (`limbs`
/// forwards saved against [`key_switch`]) while one batched inverse of the `limbs` rows
/// feeds the coefficient-domain ModUp conversions.
pub fn key_switch_dual(degree: usize, limbs: usize, special: usize, alpha: usize) -> Tally {
    raise(degree, limbs, special, alpha, true)
        + kskip_and_invert(degree, limbs, special, alpha, false)
        + kernel::mod_down(degree, limbs, special).times(2)
}

/// A ciphertext multiplication (with relinearisation) on **coefficient-form operands**
/// through the dual-form pipeline: the tensor (four operand forwards, products, `P·d`
/// absorption) and the dual-form key switch of `d2`, with **zero** tensor inverses —
/// `d0`/`d1` ride the accumulator inverse, so ModDown emits `d_i + k_i` directly.
/// Evaluation-form operands save a further `2·limbs` forwards each (their `to_evaluation`
/// no-ops).
pub fn multiply(degree: usize, limbs: usize, special: usize, alpha: usize) -> Tally {
    tensor(degree, limbs) + key_switch_dual(degree, limbs, special, alpha)
}

/// A fused multiply+rescale: [`multiply`] except that the fused ModDown+rescale plan treats
/// the level's top prime as a special limb (`q_len = limbs-1`, `p_len = special+1`), so the
/// conversion traffic differs while the transform count does not.
pub fn multiply_rescale(degree: usize, limbs: usize, special: usize, alpha: usize) -> Tally {
    tensor(degree, limbs)
        + raise(degree, limbs, special, alpha, true)
        + kskip_and_invert(degree, limbs, special, alpha, false)
        + kernel::mod_down(degree, limbs - 1, special + 1).times(2)
}

/// A plaintext multiplication on a **coefficient-form** ciphertext: the encoded plaintext
/// and both ciphertext parts go forward, one pointwise product per part, both parts come
/// back.
pub fn multiply_plain(degree: usize, limbs: usize) -> Tally {
    kernel::ntt_forward(degree).times(3 * limbs as u64)
        + kernel::pointwise_binary(degree, limbs).times(2)
        + kernel::ntt_inverse(degree).times(2 * limbs as u64)
}

/// A plaintext multiplication on an **evaluation-form** ciphertext: only the plaintext goes
/// forward — the parts are already there, and the product stays eval-resident (no
/// inverses). With an NTT-cached plaintext (`Evaluator::multiply_plain_ntt`) even that
/// forward disappears, leaving the two products.
pub fn multiply_plain_eval(degree: usize, limbs: usize) -> Tally {
    kernel::ntt_forward(degree).times(limbs as u64)
        + kernel::pointwise_binary(degree, limbs).times(2)
}

/// A real-constant multiplication (`Evaluator::multiply_const`, in either domain): one
/// per-limb scalar pass over each part, no transform.
pub fn multiply_const(degree: usize, limbs: usize) -> Tally {
    kernel::pointwise_unary(degree, limbs).times(2)
}

/// One fused `acc += c·term` (`Evaluator::accumulate_const`, `limbs` being the
/// accumulator's): one scalar multiply-add pass over each part, no transform. A `k`-term
/// Chebyshev leaf therefore costs [`multiply_const`] for its seed plus `k − 1` of these
/// before its rescale.
pub fn accumulate_const(degree: usize, limbs: usize) -> Tally {
    kernel::scalar_multiply_add(degree, limbs).times(2)
}

/// One key-switched rotation (or conjugation): both parts' automorphism gathers, the key
/// switch of the rotated `c1`, and the `c0 += k0` combine. The automorphisms and the add
/// are transform-free, so the transforms are exactly one [`key_switch`]'s.
pub fn rotation(degree: usize, limbs: usize, special: usize, alpha: usize) -> Tally {
    kernel::automorphism(degree, limbs).times(2)
        + key_switch(degree, limbs, special, alpha)
        + kernel::pointwise_binary(degree, limbs)
}

/// A hoisted rotation batch with `rotations` key-switched steps: the digit raise (the
/// `β·raised` forward sweep) paid **once**, then per rotation a permuted KSKIP sweep (the
/// evaluation-domain gather rides the inner product), both accumulator inverse batches
/// (`2·raised` inverses), both ModDowns, the `c0` automorphism and the `c0 += k0` combine.
/// A batch of only free steps (`rotations == 0`) costs nothing.
pub fn hoisted_rotation_batch(
    degree: usize,
    limbs: usize,
    special: usize,
    alpha: usize,
    rotations: usize,
) -> Tally {
    if rotations == 0 {
        return Tally::ZERO;
    }
    let per_rotation = kskip_and_invert(degree, limbs, special, alpha, true)
        + kernel::mod_down(degree, limbs, special).times(2)
        + kernel::automorphism(degree, limbs)
        + kernel::pointwise_binary(degree, limbs);
    raise(degree, limbs, special, alpha, false) + per_rotation.times(rotations as u64)
}

/// One **eval-resident** BSGS stage (the shipped `LinearTransform::apply_with` path): the
/// hoisted baby batch, one promotion of each distinct baby into evaluation form (`2·limbs`
/// forwards per baby — paid once per baby instead of once per *diagonal*), two pointwise
/// products per diagonal against the plan's NTT-cached plaintext rows, the eval-resident
/// partial-sum adds (`diagonals - 1` ciphertext adds), **one** inverse pair per giant group
/// (`2·limbs` per group instead of per diagonal), one full rotation per nonzero giant step,
/// and the trailing rescale of both parts.
///
/// `warm` charges the one-time cache fill: `diagonals·limbs` plaintext forwards on the first
/// application of a transform at a level. Every later application performs **zero plaintext
/// forward transforms** — the cached diagonals are reused across applies and across
/// bootstrap iterations.
pub fn bsgs_stage_eval(
    degree: usize,
    limbs: usize,
    special: usize,
    alpha: usize,
    plan: &BsgsPlan,
    diagonals: usize,
    warm: bool,
) -> Tally {
    let baby_count = plan.baby_offsets().len() as u64;
    let group_count = plan.groups().len() as u64;
    let babies = hoisted_rotation_batch(degree, limbs, special, alpha, plan.baby_rotation_count());
    let promote = kernel::ntt_forward(degree).times(2 * limbs as u64 * baby_count);
    let cache_fill = if warm {
        kernel::ntt_forward(degree).times((diagonals * limbs) as u64)
    } else {
        Tally::ZERO
    };
    let products = kernel::pointwise_binary(degree, limbs).times(2 * diagonals as u64);
    let sums =
        kernel::pointwise_binary(degree, limbs).times(2 * diagonals.saturating_sub(1) as u64);
    let group_inverses = kernel::ntt_inverse(degree).times(2 * limbs as u64 * group_count);
    let giants = rotation(degree, limbs, special, alpha).times(plan.giant_rotation_count() as u64);
    let rescales = kernel::rescale(degree, limbs).times(2);
    babies + promote + cache_fill + products + sums + group_inverses + giants + rescales
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_rns::metering::TransformCounts;

    fn transforms(forward: u64, inverse: u64) -> TransformCounts {
        TransformCounts { forward, inverse }
    }

    #[test]
    fn formulas_compose() {
        // testing()-shaped: limbs 7, special 3, alpha 3 → beta 3, raised 10.
        let n = 64;
        let ks = key_switch(n, 7, 3, 3);
        assert_eq!(ks.transforms, transforms(30, 20));
        // Dual-form: the 7 operand rows skip their forwards and pay conversion inverses.
        assert_eq!(key_switch_dual(n, 7, 3, 3).transforms, transforms(23, 27));
        assert_eq!(multiply(n, 7, 3, 3).transforms, transforms(51, 27));
        // The fused rescale changes conversion traffic, never transforms.
        let fused = multiply_rescale(n, 7, 3, 3);
        assert_eq!(fused.transforms, multiply(n, 7, 3, 3).transforms);
        assert_ne!(fused.bytes, multiply(n, 7, 3, 3).bytes);
        assert_eq!(multiply_plain(n, 7).transforms, transforms(21, 14));
        assert_eq!(multiply_plain_eval(n, 7).transforms, transforms(7, 0));
        assert_eq!(multiply_const(n, 7).transforms, transforms(0, 0));
        assert_eq!(accumulate_const(n, 7).transforms, transforms(0, 0));
        assert_eq!(rotation(n, 7, 3, 3).transforms, ks.transforms);
        // A 4-rotation hoisted batch pays the forward sweep once.
        let batch = hoisted_rotation_batch(n, 7, 3, 3, 4);
        assert_eq!(batch.transforms, transforms(30, 80));
        assert_eq!(hoisted_rotation_batch(n, 7, 3, 3, 0), Tally::ZERO);
        // Tally arithmetic.
        assert_eq!(ks + ks, ks.times(2));
        assert_eq!((ks + batch).since(&batch), ks);
        assert_eq!([ks, batch].into_iter().sum::<Tally>(), ks + batch);
    }

    #[test]
    fn eval_resident_bsgs_formula_charges_the_cache_fill_only_when_warm() {
        // 12 diagonals, baby step 4 → babies {0,1,2,3}, groups {0,4,8}.
        let offsets: Vec<usize> = (0..12).collect();
        let plan = BsgsPlan::with_baby_step(64, &offsets, 4);
        let warm = bsgs_stage_eval(64, 4, 2, 2, &plan, 12, true);
        let steady = bsgs_stage_eval(64, 4, 2, 2, &plan, 12, false);
        // Warm-up charges exactly the one-time diagonal cache fill; nothing else differs.
        assert_eq!(warm.since(&steady), kernel::ntt_forward(64).times(12 * 4));
        assert_eq!(steady.transforms, transforms(68, 84));
    }
}

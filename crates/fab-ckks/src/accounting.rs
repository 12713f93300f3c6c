//! Closed-form NTT-count accounting for the evaluator's hot operations.
//!
//! Timings drift with machines and schedulers; *operation counts* do not. Following the
//! hardware-performance-monitoring argument (Röhl et al.), every hot path in this crate has a
//! closed-form expected transform count, and regression tests assert that the transforms the
//! substrate actually performed ([`fab_rns::metering`]) equal the formula — so a future
//! change that silently adds transforms fails loudly instead of just getting slower.
//!
//! Notation: a ciphertext at level `ℓ` has `limbs = ℓ + 1` `Q`-limbs, `special = |P| = k`
//! extension limbs, `raised = limbs + special` raised limbs, and the hybrid key switch uses
//! `β = ⌈limbs / α⌉` digits of (up to) `α` limbs.
//!
//! The counts below are the **minimum** the hybrid datapath admits and what the
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
//!   re-transforming them (the audited-redundant per-rotation forwards the pipeline
//!   eliminated);
//! * eval-resident BSGS stage: plaintext diagonals are NTT-cached in the plan (zero
//!   plaintext forwards after warm-up), babies are promoted to evaluation form once each,
//!   and the partial sums pay one inverse pair per giant **group** instead of per diagonal
//!   ([`bsgs_stage_eval`]);
//! * fused ModDown+rescale (`multiply_rescale`): identical transform count to `multiply` —
//!   basis conversions are NTT-free, so the fusion saves conversion work, not transforms;
//! * real constants (`multiply_const`, `accumulate_const`, `add_scalar`, and through them
//!   `multiply_scalar`, `match_scale` and the Chebyshev leaf): **zero** transforms in either
//!   domain — a constant is a per-limb scalar, never a transformed plaintext polynomial —
//!   so only their traffic has a formula ([`multiply_const_bytes`],
//!   [`accumulate_const_bytes`]).
//!
//! Use [`NttMeter`] to measure a region and surface the observed count as a
//! [`fab_trace::HeOp::Ntt`] op in a recorded trace.
//!
//! ## Bytes-moved formulas
//!
//! Beside every transform-count formula sits a `_bytes` twin composing the
//! [`fab_rns::metering::bytes`] kernel costs into the operation's total DRAM-order traffic
//! (row-pass granularity over the flat limb-major layout — see that module's convention).
//! The kernels charge the *same helpers* at their call sites, so `recorded == formula`
//! bytes tests can only fail on a genuine structural change, exactly like the transform
//! counts. The KSKIP's overflow folds and the conversion's running sums happen in registers
//! and move no bytes, so neither appears in a formula.

use fab_rns::metering;
use fab_rns::metering::bytes;
pub use fab_rns::metering::{ByteCounts, TransformCounts};
use fab_trace::{HeOp, TraceSink};

use crate::BsgsPlan;

/// Builds a count from forward/inverse totals.
fn counts(forward: u64, inverse: u64) -> TransformCounts {
    TransformCounts { forward, inverse }
}

/// Component-wise sum of transform counts.
#[must_use]
pub fn add(a: TransformCounts, b: TransformCounts) -> TransformCounts {
    counts(a.forward + b.forward, a.inverse + b.inverse)
}

/// Scales a transform count by an operation multiplicity.
#[must_use]
pub fn times(a: TransformCounts, n: u64) -> TransformCounts {
    counts(a.forward * n, a.inverse * n)
}

/// Expected transforms of one hybrid key switch of a **coefficient-form** operand at
/// `limbs = ℓ+1` with `special = |P|` extension limbs and digit size `alpha`:
/// `β·(limbs+special)` forward, `2·(limbs+special)` inverse.
pub fn key_switch(limbs: usize, special: usize, alpha: usize) -> TransformCounts {
    let beta = limbs.div_ceil(alpha) as u64;
    let raised = (limbs + special) as u64;
    counts(beta * raised, 2 * raised)
}

/// Expected transforms of one **dual-form** hybrid key switch — the operand arrives in
/// evaluation form (a tensor product `d2`): its rows are reused verbatim as the digits' own
/// raised rows (`limbs` forwards saved against [`key_switch`]) while one batched inverse of
/// the `limbs` rows feeds the coefficient-domain ModUp conversions.
pub fn key_switch_dual(limbs: usize, special: usize, alpha: usize) -> TransformCounts {
    let beta = limbs.div_ceil(alpha) as u64;
    let raised = (limbs + special) as u64;
    counts(beta * raised - limbs as u64, 2 * raised + limbs as u64)
}

/// Expected transforms of a ciphertext multiplication (with relinearisation) on
/// **coefficient-form operands** through the dual-form pipeline: four operand forwards, the
/// dual-form key switch of `d2` (its tensor rows never round-trip), and **zero** tensor
/// inverses — `d0`/`d1` stay in evaluation form and are absorbed as `P·d` into the KSKIP
/// accumulators before the accumulator inverse, so ModDown emits `d_i + k_i` directly.
///
/// A `multiply_rescale` costs exactly the same — the fused ModDown+rescale changes conversion
/// work, not transforms. Evaluation-form operands save a further `2·limbs` forwards each
/// (their `to_evaluation` no-ops).
pub fn multiply(limbs: usize, special: usize, alpha: usize) -> TransformCounts {
    add(
        counts(4 * limbs as u64, 0),
        key_switch_dual(limbs, special, alpha),
    )
}

/// Expected transforms of a plaintext multiplication on a **coefficient-form** ciphertext:
/// the encoded plaintext and both ciphertext parts go forward, both parts come back.
pub fn multiply_plain(limbs: usize) -> TransformCounts {
    counts(3 * limbs as u64, 2 * limbs as u64)
}

/// Expected transforms of a plaintext multiplication on an **evaluation-form** ciphertext:
/// only the plaintext goes forward — the parts are already there, and the product stays
/// eval-resident (no inverses). With an NTT-cached plaintext
/// (`Evaluator::multiply_plain_ntt`) even that forward disappears: zero transforms.
pub fn multiply_plain_eval(limbs: usize) -> TransformCounts {
    counts(limbs as u64, 0)
}

/// Expected transforms of one key-switched rotation (or conjugation): the coefficient-domain
/// automorphism is transform-free, so this is exactly one key switch.
pub fn rotation(limbs: usize, special: usize, alpha: usize) -> TransformCounts {
    key_switch(limbs, special, alpha)
}

/// Expected transforms of a hoisted rotation batch with `rotations` key-switched (nonzero)
/// steps: one shared `β·raised` forward sweep, then `2·raised` inverses per rotation. A batch
/// of only free steps (`rotations == 0`) performs no transforms at all.
pub fn hoisted_rotation_batch(
    limbs: usize,
    special: usize,
    alpha: usize,
    rotations: usize,
) -> TransformCounts {
    if rotations == 0 {
        return TransformCounts::default();
    }
    let beta = limbs.div_ceil(alpha) as u64;
    let raised = (limbs + special) as u64;
    counts(beta * raised, rotations as u64 * 2 * raised)
}

/// Expected transforms of one **eval-resident** BSGS stage (the shipped
/// `LinearTransform::apply_with` execution path): the hoisted baby batch, one promotion of
/// each distinct baby ciphertext into evaluation form (`2·limbs` forwards per baby — paid
/// once per baby instead of once per *diagonal*), zero-transform plaintext products against
/// the plan's NTT-cached diagonals, **one** inverse pair per giant group (`2·limbs` per
/// group instead of per diagonal), and one full rotation per nonzero giant step.
///
/// `warm` charges the one-time cache fill: `diagonals·limbs` plaintext forwards on the first
/// application of a transform at a level. Every later application performs **zero plaintext
/// forward transforms** — the cached diagonals are reused across applies and across
/// bootstrap iterations.
pub fn bsgs_stage_eval(
    limbs: usize,
    special: usize,
    alpha: usize,
    plan: &BsgsPlan,
    diagonals: usize,
    warm: bool,
) -> TransformCounts {
    let babies = hoisted_rotation_batch(limbs, special, alpha, plan.baby_rotation_count());
    let baby_count = plan.baby_offsets().len() as u64;
    let group_count = plan.groups().len() as u64;
    let promote = counts(2 * limbs as u64 * baby_count, 0);
    let cache_fill = if warm {
        counts(diagonals as u64 * limbs as u64, 0)
    } else {
        TransformCounts::default()
    };
    let group_inverses = counts(0, 2 * limbs as u64 * group_count);
    let giants = times(
        rotation(limbs, special, alpha),
        plan.giant_rotation_count() as u64,
    );
    add(
        add(add(add(babies, promote), cache_fill), group_inverses),
        giants,
    )
}

/// Traffic of the shared digit raise (`raise_digits`): the hoisted conversion products
/// over the `limbs` source rows, the digit rows' own entry into evaluation form (`limbs`
/// lazy forwards — or, dual-form, `limbs` batched inverses feeding the coefficient-domain
/// conversions), and per digit one lazy conversion + lazy forward for each of its
/// `raised - len_j` extension rows.
fn raise_bytes(
    degree: usize,
    limbs: usize,
    special: usize,
    alpha: usize,
    dual: bool,
) -> ByteCounts {
    let beta = limbs.div_ceil(alpha);
    let raised = limbs + special;
    let mut cost = bytes::hoisted_products(degree, limbs);
    cost += if dual {
        bytes::ntt_inverse(degree).times(limbs as u64)
    } else {
        bytes::ntt_forward_lazy(degree).times(limbs as u64)
    };
    for j in 0..beta {
        let len = ((j + 1) * alpha).min(limbs) - j * alpha;
        cost += (bytes::convert_row_lazy(degree, len) + bytes::ntt_forward_lazy(degree))
            .times((raised - len) as u64);
    }
    cost
}

/// Traffic of the u128 KSKIP accumulation: one [`bytes::kskip_row`] per raised limb over
/// the `β` digits.
fn kskip_bytes(
    degree: usize,
    limbs: usize,
    special: usize,
    alpha: usize,
    permuted: bool,
) -> ByteCounts {
    let beta = limbs.div_ceil(alpha);
    let raised = (limbs + special) as u64;
    bytes::kskip_row(degree, beta, permuted).times(raised)
}

/// Bytes moved by one hybrid key switch of a **coefficient-form** operand: the digit
/// raise, the KSKIP inner product, both accumulator inverse batches, and both ModDowns.
pub fn key_switch_bytes(degree: usize, limbs: usize, special: usize, alpha: usize) -> ByteCounts {
    let raised = (limbs + special) as u64;
    raise_bytes(degree, limbs, special, alpha, false)
        + kskip_bytes(degree, limbs, special, alpha, false)
        + bytes::ntt_inverse(degree).times(2 * raised)
        + bytes::mod_down(degree, limbs, special).times(2)
}

/// Bytes moved by one **dual-form** hybrid key switch (evaluation-form operand): the
/// digits' own rows are reused verbatim (their lazy forwards disappear) and one batched
/// inverse of the `limbs` rows feeds the conversions instead.
pub fn key_switch_dual_bytes(
    degree: usize,
    limbs: usize,
    special: usize,
    alpha: usize,
) -> ByteCounts {
    let raised = (limbs + special) as u64;
    raise_bytes(degree, limbs, special, alpha, true)
        + kskip_bytes(degree, limbs, special, alpha, false)
        + bytes::ntt_inverse(degree).times(2 * raised)
        + bytes::mod_down(degree, limbs, special).times(2)
}

/// Bytes moved by a ciphertext multiplication (with relinearisation) on coefficient-form
/// operands through the dual-form pipeline: four operand forwards, the three pointwise
/// tensor products plus one fused multiply-add, the dual-form key switch of `d2`, and the
/// evaluation-domain `P·d` absorption of `d0`/`d1` into the accumulators.
pub fn multiply_bytes(degree: usize, limbs: usize, special: usize, alpha: usize) -> ByteCounts {
    bytes::ntt_forward(degree).times(4 * limbs as u64)
        + bytes::pointwise_binary(degree, limbs).times(3)
        + bytes::fused_multiply_add(degree, limbs)
        + bytes::absorb(degree, limbs).times(2)
        + key_switch_dual_bytes(degree, limbs, special, alpha)
}

/// Bytes moved by a fused multiply+rescale: identical to [`multiply_bytes`] except the
/// fused ModDown+rescale plan treats the level's top prime as a special limb
/// (`q_len = limbs-1`, `p_len = special+1`), so the conversion traffic differs while the
/// transform count does not.
pub fn multiply_rescale_bytes(
    degree: usize,
    limbs: usize,
    special: usize,
    alpha: usize,
) -> ByteCounts {
    let raised = (limbs + special) as u64;
    bytes::ntt_forward(degree).times(4 * limbs as u64)
        + bytes::pointwise_binary(degree, limbs).times(3)
        + bytes::fused_multiply_add(degree, limbs)
        + bytes::absorb(degree, limbs).times(2)
        + raise_bytes(degree, limbs, special, alpha, true)
        + kskip_bytes(degree, limbs, special, alpha, false)
        + bytes::ntt_inverse(degree).times(2 * raised)
        + bytes::mod_down(degree, limbs - 1, special + 1).times(2)
}

/// Bytes moved by a real-constant multiplication (`Evaluator::multiply_const`, in either
/// domain): one per-limb scalar pass over each part.
pub fn multiply_const_bytes(degree: usize, limbs: usize) -> ByteCounts {
    bytes::pointwise_unary(degree, limbs).times(2)
}

/// Bytes moved by one fused `acc += c·term` (`Evaluator::accumulate_const`, `limbs` being
/// the accumulator's): one scalar multiply-add pass over each part. A `k`-term Chebyshev
/// leaf therefore moves [`multiply_const_bytes`] for its seed plus `k − 1` of these before
/// its rescale.
pub fn accumulate_const_bytes(degree: usize, limbs: usize) -> ByteCounts {
    bytes::scalar_multiply_add(degree, limbs).times(2)
}

/// Bytes moved by one key-switched rotation (or conjugation): both parts' automorphism
/// gathers, the key switch of the rotated `c1`, and the `c0 += k0` combine. (The
/// automorphisms and the add are transform-free but not traffic-free.)
pub fn rotation_bytes(degree: usize, limbs: usize, special: usize, alpha: usize) -> ByteCounts {
    bytes::automorphism(degree, limbs).times(2)
        + key_switch_bytes(degree, limbs, special, alpha)
        + bytes::pointwise_binary(degree, limbs)
}

/// Bytes moved by a hoisted rotation batch with `rotations` key-switched steps: the digit
/// raise paid **once**, then per rotation a permuted KSKIP sweep (the evaluation-domain
/// gather rides the inner product), both accumulator inverse batches, both ModDowns, the
/// `c0` automorphism and the `c0 += k0` combine. Free-step-only batches move nothing.
pub fn hoisted_rotation_batch_bytes(
    degree: usize,
    limbs: usize,
    special: usize,
    alpha: usize,
    rotations: usize,
) -> ByteCounts {
    if rotations == 0 {
        return ByteCounts::default();
    }
    let raised = (limbs + special) as u64;
    let per_rotation = kskip_bytes(degree, limbs, special, alpha, true)
        + bytes::ntt_inverse(degree).times(2 * raised)
        + bytes::mod_down(degree, limbs, special).times(2)
        + bytes::automorphism(degree, limbs)
        + bytes::pointwise_binary(degree, limbs);
    raise_bytes(degree, limbs, special, alpha, false) + per_rotation.times(rotations as u64)
}

/// Bytes moved by one **eval-resident** BSGS stage (the shipped `apply_with` path): the
/// hoisted baby batch, each distinct baby promoted to evaluation form once, the one-time
/// diagonal cache fill when `warm`, two pointwise products per diagonal against the cached
/// plaintext rows, the eval-resident partial-sum adds (`diagonals - 1` ciphertext adds),
/// one inverse pair per giant group, one full rotation per nonzero giant step, and the
/// trailing rescale of both parts.
pub fn bsgs_stage_eval_bytes(
    degree: usize,
    limbs: usize,
    special: usize,
    alpha: usize,
    plan: &BsgsPlan,
    diagonals: usize,
    warm: bool,
) -> ByteCounts {
    let baby_count = plan.baby_offsets().len() as u64;
    let group_count = plan.groups().len() as u64;
    let babies =
        hoisted_rotation_batch_bytes(degree, limbs, special, alpha, plan.baby_rotation_count());
    let promote = bytes::ntt_forward(degree).times(2 * limbs as u64 * baby_count);
    let cache_fill = if warm {
        bytes::ntt_forward(degree).times((diagonals * limbs) as u64)
    } else {
        ByteCounts::default()
    };
    let products = bytes::pointwise_binary(degree, limbs).times(2 * diagonals as u64);
    let sums = bytes::pointwise_binary(degree, limbs).times(2 * diagonals.saturating_sub(1) as u64);
    let group_inverses = bytes::ntt_inverse(degree).times(2 * limbs as u64 * group_count);
    let giants =
        rotation_bytes(degree, limbs, special, alpha).times(plan.giant_rotation_count() as u64);
    let rescales = bytes::rescale(degree, limbs).times(2);
    babies + promote + cache_fill + products + sums + group_inverses + giants + rescales
}

/// Measures the transforms performed between construction and [`NttMeter::elapsed`] /
/// [`NttMeter::finish_into`], using the thread-local [`fab_rns::metering`] counters.
///
/// `finish_into` surfaces the observed count as a [`HeOp::Ntt`] op on a trace sink, so
/// recorded traces (and their [`fab_trace::OpCounts::ntt`] tallies) carry verified transform
/// counts alongside the semantic operation stream.
#[derive(Debug)]
pub struct NttMeter {
    start: TransformCounts,
}

impl NttMeter {
    /// Starts measuring from the current thread's counters.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: metering::counts(),
        }
    }

    /// Transforms performed since [`NttMeter::start`].
    pub fn elapsed(&self) -> TransformCounts {
        metering::counts().since(&self.start)
    }

    /// Records the elapsed transform count as one [`HeOp::Ntt`] op on `sink` and returns it.
    pub fn finish_into(self, sink: &dyn TraceSink) -> TransformCounts {
        let elapsed = self.elapsed();
        sink.record(HeOp::Ntt {
            count: elapsed.total() as usize,
        });
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_compose() {
        // testing()-shaped: limbs 7, special 3, alpha 3 → beta 3, raised 10.
        let ks = key_switch(7, 3, 3);
        assert_eq!(
            ks,
            TransformCounts {
                forward: 30,
                inverse: 20
            }
        );
        // Dual-form: the 7 operand rows skip their forwards and pay conversion inverses.
        assert_eq!(
            key_switch_dual(7, 3, 3),
            TransformCounts {
                forward: 23,
                inverse: 27
            }
        );
        let mul = multiply(7, 3, 3);
        assert_eq!(
            mul,
            TransformCounts {
                forward: 51,
                inverse: 27
            }
        );
        assert_eq!(
            multiply_plain(7),
            TransformCounts {
                forward: 21,
                inverse: 14
            }
        );
        assert_eq!(
            multiply_plain_eval(7),
            TransformCounts {
                forward: 7,
                inverse: 0
            }
        );
        assert_eq!(rotation(7, 3, 3), ks);
        // A 4-rotation hoisted batch pays the forward sweep once.
        let batch = hoisted_rotation_batch(7, 3, 3, 4);
        assert_eq!(
            batch,
            TransformCounts {
                forward: 30,
                inverse: 80
            }
        );
        assert_eq!(
            hoisted_rotation_batch(7, 3, 3, 0),
            TransformCounts::default()
        );
        // Helpers.
        assert_eq!(add(ks, ks), times(ks, 2));
    }

    #[test]
    fn eval_resident_bsgs_formula_charges_the_cache_fill_only_when_warm() {
        // 12 diagonals, baby step 4 → babies {0,1,2,3}, groups {0,4,8}.
        let offsets: Vec<usize> = (0..12).collect();
        let plan = BsgsPlan::with_baby_step(64, &offsets, 4);
        let warm = bsgs_stage_eval(4, 2, 2, &plan, 12, true);
        let steady = bsgs_stage_eval(4, 2, 2, &plan, 12, false);
        // Warm-up charges exactly the one-time diagonal cache fill; nothing else differs.
        assert_eq!(warm.forward - steady.forward, 12 * 4);
        assert_eq!(warm.inverse, steady.inverse);
        assert_eq!(
            steady,
            TransformCounts {
                forward: 68,
                inverse: 84
            }
        );
    }

    #[test]
    fn meter_reports_into_a_sink() {
        let sink = fab_trace::RecordingSink::new("meter");
        let meter = NttMeter::start();
        fab_rns::metering::add_forward(5);
        fab_rns::metering::add_inverse(2);
        let elapsed = meter.finish_into(&sink);
        assert_eq!(elapsed.total(), 7);
        assert_eq!(sink.snapshot().counts().ntt, 7);
    }
}

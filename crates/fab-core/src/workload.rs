//! Operation traces: sequences of homomorphic operations (with their levels) whose cost the
//! accelerator model aggregates.
//!
//! The op vocabulary itself ([`HeOp`], [`OpTrace`], [`OpCounts`]) lives in the `fab-trace`
//! crate so that the executing scheme (`fab-ckks`) can *record* traces with the same types the
//! model costs; this module re-exports it and adds the paper's FPGA-scale bootstrapping
//! workload. [`bootstrap_trace`] plans its CoeffToSlot and SlotToCoeff stages with the program
//! the software runs: each is a transform known by its structural offsets
//! ([`LinearTransform::from_offsets`]) run through [`LinearTransform::apply_with`] on a
//! [`PlanBackend`], so no diagonal is encoded. EvalMod is the last hand-written part: a depth-9
//! summary of the Bossuat et al. polynomial, which performs no rotation.

use fab_ckks::linear_transform::{coeff_to_slot_offset_sets, slot_to_coeff_offset_sets};
use fab_ckks::{
    CkksContext, CkksError, CkksParams, EvalBackend, LinearTransform, PlanBackend, PlanCiphertext,
};
use fab_trace::phase;

pub use fab_trace::{HeOp, OpCounts, OpTrace};

use crate::{FabConfig, OpCost, OpCostModel};

/// Multiplicative depth of the modelled EvalMod (the paper's sine polynomial).
const EVAL_MOD_DEPTH: usize = 9;
/// Its ciphertext multiplications, `2^(depth/2) + depth`: roughly a BSGS evaluation's count.
const EVAL_MOD_MULTIPLICATIONS: usize = 25;

/// Builds the operation trace of one fully-packed bootstrapping at the given parameters and
/// `ﬀtIter` (at least 1; Section 2.1.3: linear transform → polynomial evaluation → linear
/// transform) as one [`PlanBackend`] run: the ModRaise NTT batch, the planned CoeffToSlot
/// stages and the conjugation and two additions that split the halves (op for op the phase of
/// `fab_ckks::Bootstrapper::predicted_trace`), the EvalMod summary on both halves, then the
/// recombining addition and the planned SlotToCoeff stages.
///
/// # Panics
///
/// Panics if the parameter set has no valid context or too few levels for the bootstrap.
pub fn bootstrap_trace(params: &CkksParams, fft_iter: usize) -> OpTrace {
    planned_bootstrap(params, fft_iter.max(1))
        .unwrap_or_else(|e| panic!("cannot plan a bootstrap at these parameters: {e}"))
}

/// [`bootstrap_trace`]'s pipeline, with the planner's errors.
fn planned_bootstrap(params: &CkksParams, fft_iter: usize) -> fab_ckks::Result<OpTrace> {
    let slots = params.slot_count();
    let plan = PlanBackend::new(
        CkksContext::new_arc(params.clone())?,
        format!("bootstrap(fftIter={fft_iter})"),
    );
    let stages = |ct: PlanCiphertext, offset_sets: Vec<Vec<usize>>| {
        offset_sets.iter().try_fold(ct, |ct, offsets| {
            LinearTransform::from_offsets(slots, offsets).apply_with(&plan, &ct)
        })
    };

    // ModRaise: every limb of both ring elements is re-populated and transformed.
    plan.begin_phase(phase::MOD_RAISE);
    plan.push(HeOp::Ntt {
        count: 2 * params.total_q_limbs(),
    });
    let raised = PlanCiphertext::new(params.max_level, params.default_scale());

    plan.begin_phase(phase::COEFF_TO_SLOT);
    let ct = stages(raised, coeff_to_slot_offset_sets(slots, fft_iter))?;
    let conjugated = plan.conjugate(&ct)?;
    plan.add(&ct, &conjugated)?;
    plan.sub(&ct, &conjugated)?;

    // EvalMod on both halves, each spending EVAL_MOD_DEPTH levels.
    plan.begin_phase(phase::EVAL_MOD);
    let exhausted = CkksError::LevelExhausted {
        operation: "EvalMod",
    };
    let exit = ct.level.checked_sub(EVAL_MOD_DEPTH).ok_or(exhausted)?;
    for _ in 0..2 {
        for level in (exit + 1..=ct.level).rev() {
            for _ in 0..EVAL_MOD_MULTIPLICATIONS.div_ceil(EVAL_MOD_DEPTH) {
                plan.push(HeOp::Multiply { level });
            }
            plan.push(HeOp::Rescale { level });
        }
    }

    // SlotToCoeff: the reduced halves recombine with one addition, then the mirrored stages.
    plan.begin_phase(phase::SLOT_TO_COEFF);
    let half = PlanCiphertext::new(exit, ct.scale);
    let recombined = plan.add(&half, &half)?;
    stages(recombined, slot_to_coeff_offset_sets(slots, fft_iter))?;
    Ok(plan.into_trace())
}

/// The cost of one fully-packed bootstrapping at the given parameters/configuration.
pub fn bootstrap_cost(config: &FabConfig, params: &CkksParams, fft_iter: usize) -> OpCost {
    let model = OpCostModel::new(config.clone(), params.clone());
    model.cost_trace(&bootstrap_trace(params, fft_iter))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_builder_accumulates_ops() {
        let mut trace = OpTrace::new("demo");
        assert!(trace.is_empty());
        trace.push(HeOp::Add { level: 3 });
        trace.push_many(HeOp::Rescale { level: 3 }, 2);
        assert_eq!(trace.len(), 3);
        let mut other = OpTrace::new("other");
        other.push(HeOp::Multiply { level: 2 });
        trace.extend(&other);
        assert_eq!(trace.len(), 4);
    }

    #[test]
    fn trace_cost_equals_sum_of_op_costs() {
        let model = OpCostModel::new(FabConfig::alveo_u280(), CkksParams::fab_paper());
        let mut trace = OpTrace::new("sum");
        trace.push(HeOp::Add { level: 10 });
        trace.push(HeOp::Multiply { level: 10 });
        let expected = model.add(10).then(model.multiply(10));
        assert_eq!(model.cost_trace(&trace), expected);
    }

    #[test]
    fn bootstrap_fits_within_level_budget() {
        // The planned bootstrap spends L_boot = 2·ﬀtIter + 9 levels (17 at ﬀtIter 4): its
        // last stage rescales at the lowest level it touches, and leaves the paper's 6.
        let params = CkksParams::fab_paper();
        let trace = bootstrap_trace(&params, 4);
        let lowest = trace.ops.iter().filter_map(HeOp::level).min();
        let exit = lowest.expect("a bootstrap spends levels") - 1;
        assert_eq!(params.max_level - exit, 17);
        assert_eq!(params.max_level - exit, params.bootstrap_depth());
        assert_eq!(exit, params.levels_after_bootstrap());
    }

    #[test]
    fn larger_fft_iter_reduces_rotations_per_stage() {
        // The widest planned CoeffToSlot stage as (diagonals, key-switched rotations): a stage
        // multiplies one plaintext per diagonal and ends in its one rescale.
        let params = CkksParams::fab_paper();
        let widest = |fft_iter: usize| {
            let trace = bootstrap_trace(&params, fft_iter);
            let ops = trace
                .phase_ops(phase::COEFF_TO_SLOT)
                .expect("a CoeffToSlot phase");
            let stages = ops.split_inclusive(|op| matches!(op, HeOp::Rescale { .. }));
            let counts = stages.take(fft_iter).map(|stage| {
                let mut c = OpCounts::default();
                stage.iter().for_each(|&op| c.record(op));
                (c.multiply_plain, c.rotate + c.rotate_hoisted)
            });
            counts.max().expect("at least one stage")
        };
        // log2(32768) / 4 = 3.75 → radix-16 stages: 2·16 − 1 = 31 diagonals, under ~2·√31
        // key-switched rotations.
        let (diagonals4, rotations4) = widest(4);
        assert_eq!(diagonals4, 31);
        assert!((8..=16).contains(&rotations4), "{rotations4} rotations");
        // More, sparser stages: fewer diagonals and fewer rotations each.
        let (diagonals2, rotations2) = widest(2);
        let (diagonals5, rotations5) = widest(5);
        assert!(rotations2 > rotations5, "{rotations2} vs {rotations5}");
        assert!(diagonals2 > diagonals5, "{diagonals2} vs {diagonals5}");
    }

    #[test]
    fn bootstrap_cost_is_in_the_tens_of_milliseconds() {
        // The paper's amortized metric implies a fully-packed bootstrapping in the tens of
        // milliseconds on one U280 (T_boot ≈ 70–80 ms at 300 MHz).
        let config = FabConfig::alveo_u280();
        let params = CkksParams::fab_paper();
        let cost = bootstrap_cost(&config, &params, params.fft_iter);
        let ms = cost.time_ms(&config);
        assert!(ms > 20.0 && ms < 400.0, "bootstrap time {ms} ms");
        assert!(cost.ntt_count > 1_000, "bootstrapping is NTT heavy");
    }

    #[test]
    fn bootstrap_ntt_count_decreases_with_fft_iter() {
        // Figure 2: increasing ﬀtIter reduces the number of NTT operations per bootstrap.
        let config = FabConfig::alveo_u280();
        let params = CkksParams::fab_paper();
        let mut last = u64::MAX;
        for fft_iter in 1..=5 {
            let cost = bootstrap_cost(&config, &params, fft_iter);
            assert!(
                cost.ntt_count <= last,
                "NTT count must not increase with fftIter"
            );
            last = cost.ntt_count;
        }
    }

    #[test]
    fn bootstrap_trace_carries_the_four_phases() {
        let params = CkksParams::fab_paper();
        let trace = bootstrap_trace(&params, params.fft_iter);
        assert_eq!(
            trace.phase_labels(),
            vec![
                phase::MOD_RAISE,
                phase::COEFF_TO_SLOT,
                phase::EVAL_MOD,
                phase::SLOT_TO_COEFF
            ]
        );
        let phases = trace.phase_counts();
        // CoeffToSlot performs fft_iter rescales (one level per stage), EvalMod 2×9.
        assert_eq!(phases[1].1.rescale, params.fft_iter as u64);
        assert_eq!(phases[2].1.rescale, 18);
        assert_eq!(phases[3].1.rescale, params.fft_iter as u64);
        // Per-phase cost decomposition sums to the full trace cost.
        let model = OpCostModel::new(FabConfig::alveo_u280(), params.clone());
        let total = model.cost_trace(&trace);
        let summed = model
            .phase_costs(&trace)
            .into_iter()
            .fold(crate::OpCost::default(), |acc, (_, c)| acc.then(c));
        assert_eq!(total, summed);
    }
}

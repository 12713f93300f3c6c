//! Operation traces: sequences of homomorphic operations (with their levels) whose cost the
//! accelerator model aggregates.
//!
//! The op vocabulary itself ([`HeOp`], [`OpTrace`], [`OpCounts`]) lives in the `fab-trace`
//! crate so that the executing scheme (`fab-ckks`) can *record* traces with the same types the
//! model costs; this module re-exports it and adds the paper's FPGA-scale bootstrapping
//! workload. [`bootstrap_trace`] is the program's own plan: the predicted trace of a plan-only
//! [`Bootstrapper`], whose stages are known by their structural offsets, so no diagonal is
//! encoded, and whose EvalMod is the one the program picks and runs. There is no second
//! description of the bootstrap to keep in step.

use fab_ckks::{BootstrapParams, Bootstrapper, CkksContext, CkksParams};

pub use fab_trace::{HeOp, OpCounts, OpTrace};

use crate::{FabConfig, OpCost, OpCostModel};

/// Builds the operation trace of one fully-packed bootstrapping at the given parameters and
/// `ﬀtIter` (Section 2.1.3: linear transform → polynomial evaluation → linear transform): the
/// [`Bootstrapper::predicted_trace`] of [`Bootstrapper::plan_only`] with the scheme's
/// [`BootstrapParams::for_scheme`] and this `ﬀtIter`, op for op what the bootstrapper
/// [`Bootstrapper::new`] builds from the same arguments executes.
///
/// # Panics
///
/// Panics if the parameter set has no valid context or cannot carry the bootstrap.
pub fn bootstrap_trace(params: &CkksParams, fft_iter: usize) -> OpTrace {
    let bootstrap = BootstrapParams {
        fft_iter,
        ..BootstrapParams::for_scheme(params)
    };
    CkksContext::new_arc(params.clone())
        .and_then(|ctx| Bootstrapper::plan_only(ctx, bootstrap))
        .and_then(|bootstrapper| bootstrapper.predicted_trace())
        .unwrap_or_else(|e| panic!("cannot plan a bootstrap at these parameters: {e}"))
}

/// The cost of one fully-packed bootstrapping at the given parameters/configuration.
pub fn bootstrap_cost(config: &FabConfig, params: &CkksParams, fft_iter: usize) -> OpCost {
    let model = OpCostModel::new(config.clone(), params.clone());
    model.cost_trace(&bootstrap_trace(params, fft_iter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_trace::phase;

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
        // The planned bootstrap's last op is a rescale at the lowest level it touches. At
        // ﬀtIter 4 it runs 23 → 19 (CoeffToSlot) → 9 (EvalMod) → 5 (SlotToCoeff) → 4 and
        // exits at level 4: two levels below the formula's L_boot = 2·ﬀtIter + 9 = 17. One is
        // the extra rescale after the Chebyshev leaves, which makes EvalMod spend
        // r + log2(d+1) + 1 = 10 levels instead of 9; the other is the closing `match_scale`.
        let params = CkksParams::fab_paper();
        let trace = bootstrap_trace(&params, 4);
        let lowest = trace.ops.iter().filter_map(HeOp::level).min();
        let exit = lowest.expect("a bootstrap spends levels") - 1;
        assert_eq!(exit, 4);
        assert_eq!(params.bootstrap_depth(), 17);
        assert_eq!(params.max_level - exit, params.bootstrap_depth() + 2);
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
        // CoeffToSlot performs fft_iter rescales (one level per stage). EvalMod runs one
        // evaluation per half, at the same levels: the (3, 63) pick at K = 34, 19 ciphertext
        // multiplies and 37 rescales each.
        assert_eq!(phases[1].1.rescale, params.fft_iter as u64);
        let eval_mod = trace.phase_ops(phase::EVAL_MOD).expect("an EvalMod phase");
        let (real, imag) = eval_mod.split_at(eval_mod.len() / 2);
        assert_eq!(real, imag);
        assert_eq!((phases[2].1.multiply, phases[2].1.rescale), (38, 74));
        // SlotToCoeff: one rescale per stage, and one for the closing scale match.
        assert_eq!(phases[3].1.rescale, params.fft_iter as u64 + 1);
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

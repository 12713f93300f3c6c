//! Workspace-level equivalence of the three views of the FAB rotation schedule at the paper's
//! `N = 2^16` parameter set: the *planned* trace of the real software pipeline
//! (`Bootstrapper::predicted_trace`, which a recorded execution matches op for op — enforced
//! by the fab-ckks crate tests), the *accelerator workload* (`fab_core::bootstrap_trace`, a
//! plan-only bootstrapper's predicted trace, which must equal the planned one op for op and
//! level for level), and the per-diagonal baseline the BSGS schedule replaces.

use fab::ckks::bootstrap::BootstrapParams;
use fab::prelude::*;
use fab::trace::phase;
use fab_core::workload::bootstrap_trace;

/// Key-switched rotations of one trace phase.
fn phase_keyswitches(trace: &OpTrace, label: &str) -> u64 {
    let mut counts = OpCounts::default();
    for &op in trace.phase_ops(label).unwrap_or(&[]) {
        counts.record(op);
    }
    counts.rotate + counts.rotate_hoisted
}

/// One rotation per nonzero diagonal — what the pipeline executed before the BSGS refactor.
fn per_diagonal_keyswitches(bootstrapper: &Bootstrapper) -> (u64, u64) {
    let count = |plans: Vec<&fab::ckks::BsgsPlan>| -> u64 {
        plans
            .iter()
            .map(|plan| {
                let diagonals: usize = plan.groups().iter().map(|g| g.babies.len()).sum();
                let has_zero = plan
                    .groups()
                    .iter()
                    .any(|g| g.giant == 0 && g.babies.contains(&0));
                (diagonals - usize::from(has_zero)) as u64
            })
            .sum()
    };
    (
        count(bootstrapper.coeff_to_slot_plans()),
        count(bootstrapper.slot_to_coeff_plans()),
    )
}

#[test]
fn planned_recorded_and_accelerator_rotation_schedules_agree_at_paper_scale() {
    let params = CkksParams::fab_paper();
    let ctx = CkksContext::new_arc(params.clone()).unwrap();
    let bootstrapper =
        Bootstrapper::new(ctx.clone(), BootstrapParams::for_scheme(&params)).unwrap();
    let predicted = bootstrapper.predicted_trace().unwrap();
    let analytic = bootstrap_trace(&params, params.fft_iter);

    // The accelerator workload is the planned software pipeline: every phase, op and level.
    assert_eq!(predicted.phase_labels(), analytic.phase_labels());
    assert_eq!(predicted.ops, analytic.ops);

    // CoeffToSlot at fftIter = 4: the BSGS schedule beats one-rotation-per-diagonal by ~2.9×
    // (36 vs 105 key switches — each 31-diagonal stage needs only ⌈d/bs⌉ + bs rotations).
    let (cts_baseline, stc_baseline) = per_diagonal_keyswitches(&bootstrapper);
    let cts_bsgs = phase_keyswitches(&predicted, phase::COEFF_TO_SLOT);
    let stc_bsgs = phase_keyswitches(&predicted, phase::SLOT_TO_COEFF);
    assert!(
        cts_baseline as f64 >= 2.5 * cts_bsgs as f64,
        "CoeffToSlot: {cts_bsgs} BSGS vs {cts_baseline} per-diagonal key switches"
    );
    assert!(stc_baseline as f64 >= 2.5 * stc_bsgs as f64);
}

#[test]
fn bsgs_coeff_to_slot_cuts_keyswitches_three_fold_at_paper_scale() {
    // At the N = 2^16 paper parameters with fftIter = 3 (a configuration of the paper's own
    // Figure 2 sweep, radix-32 stages), the planned CoeffToSlot performs over 3× fewer
    // key-switched rotations than the per-diagonal baseline — and the planned trace is what a
    // recorded execution is pinned to op-for-op by the fab-ckks equivalence tests.
    let params = CkksParams::fab_paper();
    let ctx = CkksContext::new_arc(params.clone()).unwrap();
    let mut bp = BootstrapParams::for_scheme(&params);
    bp.fft_iter = 3;
    let bootstrapper = Bootstrapper::new(ctx, bp).unwrap();
    let predicted = bootstrapper.predicted_trace().unwrap();
    let analytic = bootstrap_trace(&params, 3);
    assert_eq!(predicted.phase_labels(), analytic.phase_labels());
    assert_eq!(predicted.ops, analytic.ops);

    let (cts_baseline, _) = per_diagonal_keyswitches(&bootstrapper);
    let cts_bsgs = phase_keyswitches(&predicted, phase::COEFF_TO_SLOT);
    assert!(
        cts_baseline as f64 >= 3.0 * cts_bsgs as f64,
        "CoeffToSlot: {cts_bsgs} BSGS vs {cts_baseline} per-diagonal key switches"
    );
}

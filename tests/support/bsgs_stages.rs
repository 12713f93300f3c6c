//! BSGS stage shapes shared by the transform-count (`ntt_accounting.rs`) and byte-count
//! (`bytes_accounting.rs`) checks of `accounting::bsgs_stage_eval{,_bytes}`.

use fab::ckks::linear_transform::{coeff_to_slot_stages, LinearTransform};
use fab::prelude::*;

/// The stages the eval-resident schedule is pinned on at `testing()`: the first bootstrap
/// CoeffToSlot stage, offsets {0, 1, 2} (giants [0]: the one unrotated group pays its inverse
/// pair at the rescale) and 32..40 ∪ 48..56 (giants [32, 36, 48, 52]: every group pays it
/// at its rotation).
pub fn bsgs_stages(ctx: &CkksContext) -> Vec<LinearTransform> {
    let slots = ctx.slot_count();
    let banded = |offsets: Vec<usize>| {
        let diagonal = |d: usize| -> Vec<Complex64> {
            (0..slots)
                .map(|i| Complex64::new(((i + d) as f64 * 0.11).sin() * 0.4, 0.02 * d as f64))
                .collect()
        };
        LinearTransform::from_diagonals(
            slots,
            offsets.into_iter().map(|d| (d, diagonal(d))).collect(),
        )
    };
    let stages = vec![
        coeff_to_slot_stages(ctx.fft(), ctx.params().fft_iter)
            .into_iter()
            .next()
            .expect("at least one CoeffToSlot stage"),
        banded((0..3).collect()),
        banded((32..40).chain(48..56).collect()),
    ];
    let giants = |stage: &LinearTransform| -> Vec<usize> {
        stage.bsgs_plan().groups().iter().map(|g| g.giant).collect()
    };
    assert_eq!(giants(&stages[1]), [0]);
    assert_eq!(giants(&stages[2]), [32, 36, 48, 52]);
    stages
}

//! NTT-count regression: the transforms the substrate *actually performs* for the hot
//! evaluator operations must equal the `transforms` half of their closed forms in
//! `fab_ckks::accounting` — verified operation counts instead of trusted timings. A future
//! change that silently adds transforms to a key switch, `multiply`, a constant op, the
//! hoisted rotation batch or a bootstrap BSGS stage fails here.
//!
//! The runs are shared with `bytes_accounting.rs` (`support/op_cases.rs`), which checks the
//! `bytes` half of the same tallies; `op_accounting.rs` checks the key switch in both entry
//! domains, `multiply_plain`, the thread-count invariance and the paper-scale table as
//! whole-`Tally` equalities.

#[path = "support/fixture.rs"]
mod fixture;
#[path = "support/op_cases.rs"]
mod op_cases;

use op_cases::Case;

/// Asserts every case's charged transforms against its formula's.
fn assert_transforms(cases: Vec<Case>) {
    for case in cases {
        assert_eq!(
            case.charged.transforms, case.formula.transforms,
            "{}: transform count drifted from its closed form",
            case.what
        );
    }
}

#[test]
fn multiply_and_key_switch_match_the_closed_form_minimum() {
    assert_transforms(op_cases::multiply_and_key_switch());
}

#[test]
fn real_constant_ops_and_the_chebyshev_leaf_are_transform_free() {
    // Their formulas count no transform; only an evaluation-form rescale pays its
    // 2·(ℓ+1) inverses.
    assert_transforms(op_cases::constant_ops_and_leaf());
}

#[test]
fn hoisted_rotation_batch_shares_one_forward_sweep() {
    assert_transforms(op_cases::rotation_and_hoisted_batch());
}

#[test]
fn bootstrap_coeff_to_slot_stage_matches_its_bsgs_formula() {
    assert_transforms(op_cases::bsgs_stages_warm_and_steady());
}

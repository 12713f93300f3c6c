//! Bytes-moved regression: the DRAM-order traffic the substrate *actually records* for the
//! hot evaluator operations must equal the `bytes` half of their closed forms in
//! `fab_ckks::accounting` — the byte meter that feeds the software roofline. A future change
//! that silently adds (or loses) memory traffic in `multiply`, `multiply_rescale`, a
//! constant op, a rotation, a hoisted batch or a bootstrap BSGS stage fails here, not in a
//! benchmark.
//!
//! The runs are shared with `ntt_accounting.rs` (`support/op_cases.rs`), which checks the
//! `transforms` half of the same tallies.

#[path = "support/fixture.rs"]
mod fixture;
#[path = "support/op_cases.rs"]
mod op_cases;

use op_cases::Case;

/// Asserts every case's charged bytes against its formula's.
fn assert_bytes(cases: Vec<Case>) {
    for case in cases {
        assert_eq!(
            case.charged.bytes, case.formula.bytes,
            "{}: recorded bytes drifted from its closed form",
            case.what
        );
    }
}

#[test]
fn multiply_and_fused_rescale_bytes_match_their_formulas() {
    assert_bytes(op_cases::multiply_and_key_switch());
}

#[test]
fn constant_op_and_leaf_bytes_match_their_formulas() {
    assert_bytes(op_cases::constant_ops_and_leaf());
}

#[test]
fn rotation_and_hoisted_batch_bytes_match_their_formulas() {
    assert_bytes(op_cases::rotation_and_hoisted_batch());
}

#[test]
fn bootstrap_coeff_to_slot_stage_bytes_match_the_bsgs_formula() {
    assert_bytes(op_cases::bsgs_stages_warm_and_steady());
}

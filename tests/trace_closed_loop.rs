//! The closed loop the trace-recording API exists for, demonstrated end to end across all
//! layers: a *real* bootstrap executes through the instrumented scheme API, the recorded
//! operation stream is costed by the FAB accelerator model, and its per-phase op counts are
//! asserted exactly equal to the analytic trace of the same pipeline — no hand-maintained
//! workload left unvalidated by a recorded counterpart.

use fab::ckks::bootstrap::BootstrapParams;
use fab::prelude::*;
use fab::trace::{phase, RecordingSink};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

#[test]
fn recorded_bootstrap_feeds_the_accelerator_model() {
    // --- execute a real bootstrap through the instrumented API -----------------------------
    let ctx = CkksContext::new_arc(CkksParams::bootstrap_testing()).unwrap();
    let mut rng = ChaCha20Rng::seed_from_u64(77);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let keygen = KeyGenerator::new(ctx.clone(), sk.clone());
    let pk = keygen.public_key(&mut rng);
    let rlk = keygen.relinearization_key(&mut rng);

    let sink = RecordingSink::shared("recorded bootstrap");
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
    let decryptor = Decryptor::new(ctx.clone(), sk);
    let scale = ctx.params().default_scale();
    let values: Vec<f64> = (0..ctx.slot_count())
        .map(|i| 0.3 * ((i as f64) * 0.11).cos())
        .collect();
    let ct = encryptor
        .encrypt(&encoder.encode_real(&values, scale, 0).unwrap(), &mut rng)
        .unwrap();
    let refreshed = bootstrapper.bootstrap(&ct, &rlk, &keys).unwrap();

    // The execution is a *real* bootstrap: the message survives and levels are refreshed.
    assert!(refreshed.level() >= 2);
    let decoded = encoder.decode_real(&decryptor.decrypt(&refreshed).unwrap());
    let max_err = decoded
        .iter()
        .zip(&values)
        .map(|(d, v)| (d - v).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 5e-2, "bootstrap error {max_err}");

    let recorded = sink.take();
    assert!(!recorded.is_empty());

    // --- per-phase counts match the analytic trace exactly ----------------------------------
    let predicted = bootstrapper.predicted_trace().unwrap();
    assert_eq!(
        recorded.phase_labels(),
        vec![
            phase::MOD_RAISE,
            phase::COEFF_TO_SLOT,
            phase::EVAL_MOD,
            phase::SLOT_TO_COEFF
        ]
    );
    assert_eq!(recorded.phase_labels(), predicted.phase_labels());
    for ((recorded_label, recorded_counts), (_, predicted_counts)) in recorded
        .phase_counts()
        .iter()
        .zip(predicted.phase_counts().iter())
    {
        assert_eq!(
            recorded_counts, predicted_counts,
            "recorded and analytic op counts diverge in phase {recorded_label}"
        );
    }

    // --- recorded == planned == fab-core workload on the rotation schedule -----------------
    // The fab-core analytic bootstrap workload prices each linear-transform stage from the
    // same BSGS plans the recorded pipeline executed, so all three views agree op-for-op on
    // rotation counts — the equivalence no longer carves out the linear-transform phases.
    let analytic = fab_core::workload::bootstrap_trace(&ctx, 3);
    assert_eq!(recorded.phase_labels(), analytic.phase_labels());
    for ((recorded_label, recorded_counts), (_, analytic_counts)) in recorded
        .phase_counts()
        .iter()
        .zip(analytic.phase_counts().iter())
    {
        assert_eq!(
            (
                recorded_counts.rotate,
                recorded_counts.rotate_hoisted,
                recorded_counts.conjugate
            ),
            (
                analytic_counts.rotate,
                analytic_counts.rotate_hoisted,
                analytic_counts.conjugate
            ),
            "recorded and fab-core rotation counts diverge in phase {recorded_label}"
        );
    }

    // --- the recorded trace feeds the accelerator cost model --------------------------------
    let config = FabConfig::alveo_u280();
    let model = OpCostModel::new(config.clone(), ctx.params().clone());
    let recorded_cost = model.cost_trace(&recorded);
    let predicted_cost = model.cost_trace(&predicted);
    assert_eq!(recorded_cost, predicted_cost);
    assert!(recorded_cost.total_cycles > 0);
    assert!(recorded_cost.ntt_count > 0);
    assert!(recorded_cost.time_ms(&config) > 0.0);

    // Per-phase cost decomposition covers the whole trace.
    let phase_total = model
        .phase_costs(&recorded)
        .into_iter()
        .fold(OpCost::default(), |acc, (_, cost)| acc.then(cost));
    assert_eq!(phase_total, recorded_cost);
}

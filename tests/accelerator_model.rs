//! Cross-crate integration tests for the accelerator model: consistency between the CKKS
//! parameter sets and the hardware model, the balanced-design claim, and the experiment
//! generators used by the benchmark harness.

use fab::prelude::*;
use fab_core::baselines::{table7_bootstrapping, table8_lr_training, HELR_TASK};
use fab_core::workload::bootstrap_cost;
use fab_core::{amortized_mult_time_us, dnum_sweep, fft_iter_sweep, WorkingSetReport};
use fab_lr::lr_training_time_s;

#[test]
fn paper_parameter_set_is_consistent_across_crates() {
    let params = CkksParams::fab_paper();
    let config = FabConfig::alveo_u280();
    // The raised ciphertext fits on chip, the KeySwitch working set does not (Section 4.6).
    let report = WorkingSetReport::new(&config, &params);
    assert!(report.ciphertext_mib < config.on_chip.capacity_mib());
    assert!(!report.fits_entirely);
    // The bootstrapping depth leaves usable levels.
    assert!(params.levels_after_bootstrap() >= 6);
}

#[test]
fn fab_is_compute_bound_not_memory_bound() {
    // The central architectural claim: with the modified datapath and smart scheduling, FAB is
    // no longer limited by main-memory bandwidth.
    let config = FabConfig::alveo_u280();
    let params = CkksParams::fab_paper();
    let model = OpCostModel::new(config.clone(), params.clone());
    for level in [7usize, 15, 23] {
        assert!(!model.multiply(level).is_memory_bound(), "level {level}");
        assert!(!model.rotate(level).is_memory_bound(), "level {level}");
    }
    // The original (unmodified) datapath moves strictly more HBM data.
    let mut original = config.clone();
    original.keyswitch_datapath = KeySwitchDatapath::Original;
    let original_model = OpCostModel::new(original, params.clone());
    assert!(
        original_model.key_switch(params.max_level).hbm_bytes
            > model.key_switch(params.max_level).hbm_bytes
    );
}

#[test]
fn table7_shape_fab_between_gpu_and_asic() {
    let config = FabConfig::alveo_u280();
    let params = CkksParams::fab_paper();
    let ctx = CkksContext::new_arc(params.clone()).unwrap();
    let boot = bootstrap_cost(&config, &ctx, params.fft_iter);
    let amortized = amortized_mult_time_us(
        &config,
        &params,
        &boot,
        params.levels_after_bootstrap(),
        params.slot_count(),
    );
    let rows = table7_bootstrapping();
    let lattigo = rows.iter().find(|r| r.name.contains("Lattigo")).unwrap();
    let bts = rows.iter().find(|r| r.name.contains("BTS")).unwrap();
    let f1 = rows.iter().find(|r| r.name.contains("F1")).unwrap();
    // FAB beats the CPU and the non-bootstrappable ASIC by orders of magnitude, but remains
    // slower than the bootstrapping ASIC — the shape of Table 7.
    assert!(lattigo.amortized_mult_us / amortized > 50.0);
    assert!(f1.amortized_mult_us / amortized > 100.0);
    assert!(bts.amortized_mult_us < amortized);
}

#[test]
fn table8_shape_fab2_beats_cpu_gpu_but_not_asic() {
    let config = FabConfig::alveo_u280();
    let breakdown = lr_training_time_s(&config, &CkksParams::fab_paper(), &HELR_TASK);
    let rows = table8_lr_training();
    let lattigo = rows.iter().find(|r| r.name.contains("Lattigo")).unwrap();
    let gpu = rows.iter().find(|r| r.name.contains("GPU")).unwrap();
    let bts = rows.iter().find(|r| r.name.contains("BTS")).unwrap();
    assert!(breakdown.fab2_s < breakdown.fab1_s);
    assert!(lattigo.seconds_per_iteration / breakdown.fab2_s > 100.0);
    assert!(gpu.seconds_per_iteration / breakdown.fab2_s > 2.0);
    assert!(bts.seconds_per_iteration < breakdown.fab2_s);
}

#[test]
fn design_space_choices_match_the_paper() {
    let params = CkksParams::fab_paper();
    let config = FabConfig::alveo_u280();
    // Figure 1: dnum = 3 gives 24 + 8 limbs and 6 levels after bootstrapping.
    let dnum_points = dnum_sweep(&params, 32, params.bootstrap_depth(), &[1, 2, 3, 4, 5, 6]);
    let chosen = dnum_points.iter().find(|p| p.dnum == 3).unwrap();
    assert_eq!(chosen.q_limbs, 24);
    assert_eq!(chosen.alpha, 8);
    // Figure 2: fftIter = 4 is within 25% of the best amortized time in the sweep.
    let ctx = CkksContext::new_arc(params.clone()).unwrap();
    let fft_points = fft_iter_sweep(&config, &ctx, &[1, 2, 3, 4, 5, 6]);
    let best = fft_points
        .iter()
        .map(|p| p.amortized_mult_us)
        .fold(f64::INFINITY, f64::min);
    let at_4 = fft_points.iter().find(|p| p.fft_iter == 4).unwrap();
    assert!(at_4.amortized_mult_us <= best * 1.25);
}

#[test]
fn resource_estimate_fits_the_u280() {
    let estimate = ResourceEstimator::new().estimate(&FabConfig::alveo_u280());
    assert!(estimate.fits());
    assert!(
        estimate.uram_percent() > 95.0,
        "URAM is the binding resource"
    );
    assert!(estimate.bram_percent() > 90.0);
    assert!(estimate.dsp_percent() < 100.0);
}

#[test]
fn scaling_up_functional_units_approaches_asic_performance() {
    // Section 5.4: with BTS-class resources (8192 multipliers, 512 MB SRAM) the same
    // microarchitecture would overtake BTS. We check the weaker, directional claim: the
    // BTS-class configuration is several times faster than the U280 configuration.
    let params = CkksParams::fab_paper();
    let u280 = OpCostModel::new(FabConfig::alveo_u280(), params.clone());
    let scaled = OpCostModel::new(FabConfig::bts_class_scaling(), params.clone());
    let level = params.max_level;
    let speedup =
        u280.multiply(level).total_cycles as f64 / scaled.multiply(level).total_cycles as f64;
    assert!(speedup > 4.0, "BTS-class scaling speedup {speedup}");
}

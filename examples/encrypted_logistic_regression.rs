//! The paper's target application: logistic-regression training over encrypted data.
//!
//! Trains a scaled-down model under encryption, compares it with the plaintext trainer on the
//! same synthetic HELR-shaped data, and prints the accelerator model's Table 8 projection
//! (FAB-1 on one FPGA, FAB-2 on eight).
//!
//! Run with: `cargo run --release --example encrypted_logistic_regression`

use fab::prelude::*;
use fab_core::baselines::{table8_lr_training, HELR_TASK};
use fab_lr::{lr_training_time_s, TrainingConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- plaintext reference at full HELR size ----------------------------------------------
    let full = synthetic_mnist_like(HELR_TASK.samples, HELR_TASK.features, 11);
    let (train, test) = full.split(0.85);
    let mut plaintext =
        LogisticRegressionTrainer::new(train.feature_count(), TrainingConfig::default());
    plaintext.train(&train);
    println!(
        "plaintext HELR reference: {} samples x {} features, 30 iterations, test accuracy {:.3}",
        train.len(),
        train.feature_count(),
        plaintext.accuracy(&test)
    );

    // --- encrypted training at a reduced size -----------------------------------------------
    // The testing set (N = 2^12, 40-bit scale) with room for two iterations.
    let params = CkksParams {
        max_level: 12,
        dnum: 4,
        ..CkksParams::testing()
    };
    let ctx = CkksContext::new_arc(params)?;
    let features = 16;
    let small = synthetic_mnist_like(64, features, 17);
    let mut encrypted = EncryptedLogisticRegression::new(ctx, features, 3)?;
    let report = encrypted.train(&small, 2, 16, 1.0)?;
    println!(
        "encrypted training (scaled down, {} features, 2 iterations): accuracy {:.3}, {} levels/iteration",
        features, report.training_accuracy, report.levels_per_iteration
    );

    // --- Table 8 projection ------------------------------------------------------------------
    let config = FabConfig::alveo_u280();
    let breakdown = lr_training_time_s(&config, &CkksParams::fab_paper(), &HELR_TASK);
    println!("\nFAB model, HELR iteration at the benchmark scale (Table 8):");
    println!(
        "  {} chunks, parallel {:.3} s, serial (incl. bootstrap) {:.3} s",
        breakdown.chunks, breakdown.parallel_s, breakdown.serial_s
    );
    println!(
        "  FAB-1 (1 FPGA)  : {:.3} s/iteration (paper reports 0.103 s)",
        breakdown.fab1_s
    );
    println!(
        "  FAB-2 (8 FPGAs) : {:.3} s/iteration (paper reports 0.081 s)",
        breakdown.fab2_s
    );
    println!("\n  published baselines:");
    for row in table8_lr_training() {
        println!(
            "    {:<18} {:>8.3} s/iteration ({:.0}x vs modelled FAB-2)",
            row.name,
            row.seconds_per_iteration,
            row.seconds_per_iteration / breakdown.fab2_s
        );
    }
    Ok(())
}
